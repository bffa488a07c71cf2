package main

import (
	"strings"
	"testing"

	"overlaymatch/internal/matching"
	"overlaymatch/internal/satisfaction"
)

func TestWriteDOT(t *testing.T) {
	s := testSystem(t)
	m := matching.LIC(s, satisfaction.NewTable(s))
	var b strings.Builder
	if err := writeDOT(&b, s, m); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "graph overlay {") || !strings.HasSuffix(strings.TrimSpace(out), "}") {
		t.Fatal("not a DOT document")
	}
	if m.Size() == 0 {
		t.Fatal("empty matching makes the bold-edge check vacuous")
	}
	if strings.Count(out, "penwidth") != m.Size() {
		t.Fatalf("bold edges %d != matching size %d", strings.Count(out, "penwidth"), m.Size())
	}
	if strings.Count(out, " -- ") != s.Graph().NumEdges() {
		t.Fatal("edge count mismatch in DOT")
	}
}
