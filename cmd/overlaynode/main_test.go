package main

import (
	"strings"
	"testing"
)

func TestParsePeers(t *testing.T) {
	peers, err := parsePeers("1=127.0.0.1:7001, 2=127.0.0.1:7002")
	if err != nil {
		t.Fatalf("parsePeers: %v", err)
	}
	if len(peers) != 2 || peers[1] != "127.0.0.1:7001" || peers[2] != "127.0.0.1:7002" {
		t.Fatalf("parsePeers = %v", peers)
	}
	if peers, err := parsePeers(""); err != nil || len(peers) != 0 {
		t.Fatalf("empty -peers should parse to an empty table, got %v, %v", peers, err)
	}
}

func TestParsePeersRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"no equals", "127.0.0.1:7001", "not id=host:port"},
		{"non-numeric id", "x=127.0.0.1:7001", "not a number"},
		{"empty address", "1=", "empty address"},
		{"duplicate id", "1=127.0.0.1:7001,1=127.0.0.1:7002", "appears twice"},
	}
	for _, tc := range cases {
		_, err := parsePeers(tc.in)
		if err == nil {
			t.Errorf("%s: parsePeers(%q) accepted", tc.name, tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestValidate(t *testing.T) {
	full := map[int]string{1: "127.0.0.1:7001", 2: "127.0.0.1:7002"}
	if err := validate("127.0.0.1:7000", 0, 3, 30, full); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	cases := []struct {
		name   string
		listen string
		nodeID int
		n      int
		rto    float64
		peers  map[int]string
		want   string
	}{
		{"empty listen", "", 0, 3, 30, full, "-listen is required"},
		{"zero n", "127.0.0.1:7000", 0, 0, 30, nil, "must be positive"},
		{"negative node id", "127.0.0.1:7000", -1, 3, 30, full, "outside"},
		{"node id beyond n", "127.0.0.1:7000", 3, 3, 30, full, "outside"},
		{"peer id beyond n", "127.0.0.1:7000", 0, 2, 30, map[int]string{1: "a:1", 5: "b:2"}, "outside"},
		{"zero rto", "127.0.0.1:7000", 0, 3, 0, full, "-rto must be positive"},
		{"negative rto", "127.0.0.1:7000", 0, 3, -5, full, "-rto must be positive"},
		{"missing route", "127.0.0.1:7000", 0, 3, 30, map[int]string{1: "a:1"}, "missing a route for node 2"},
	}
	for _, tc := range cases {
		err := validate(tc.listen, tc.nodeID, tc.n, tc.rto, tc.peers)
		if err == nil {
			t.Errorf("%s: validate accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
