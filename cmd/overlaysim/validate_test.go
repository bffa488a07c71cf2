package main

import (
	"errors"
	"flag"
	"strings"
	"testing"
)

// TestValidateFlagsInteractionMatrix holds overlaysim's command-line
// verdicts as an argv table over parseArgs. The rows named after the
// former single-flag-set matrix keep that matrix's verdicts: a flag
// combination one runtime cannot honor is now a flag the subcommand
// does not define, so it fails in flag parsing.
func TestValidateFlagsInteractionMatrix(t *testing.T) {
	const churn = "events=50,leave=0.5,minalive=4,rate=2"
	const undefined = "flag provided but not defined"
	cases := []struct {
		name    string
		args    string
		wantErr string // substring; "" = must parse
	}{
		{"defaults", "event", ""},
		{"unknown runtime", "quantum", "unknown subcommand"},
		{"bad rto", "event -rto 0", "-rto"},
		{"adaptive rto without reliable", "event -adaptive-rto", "-adaptive-rto"},
		{"negative hb interval", "event -hb-interval -1", "-hb-interval"},
		{"lossy faults without reliable", "event -faults drop=0.1", "needs -reliable"},
		{"lossy faults with reliable", "event -faults drop=0.1 -reliable", ""},
		{"centralized with reliable", "lic -reliable", undefined + ": -reliable"},
		{"centralized with detector", "lic -detector on", undefined + ": -detector"},

		// udp always runs the reliable layer and has none of the
		// simulator hooks.
		{"udp without reliable", "udp -reliable=false", undefined + ": -reliable"},
		{"udp ok", "udp", ""},
		{"udp with faults", "udp -faults dup=0.1", undefined + ": -faults"},
		{"udp with trace spans", "udp -trace-spans s.ndjson", undefined + ": -trace-spans"},
		{"udp with probes", "udp -probe-interval 5", undefined + ": -probe-interval"},
		{"udp with churn", "udp -churn " + churn, undefined + ": -churn"},
		{"udp with greedy scheduler", "udp -scheduler greedy", undefined + ": -scheduler"},

		{"probe on goroutine", "goroutine -probe-interval 2", undefined + ": -probe-interval"},
		{"negative probe interval", "event -probe-interval -1", "non-negative"},
		{"spans on centralized", "lic -trace-spans s", undefined + ": -trace-spans"},
		{"bad spans format", "event -trace-spans-format xml", "-trace-spans-format"},
		{"bad metrics format", "event -metrics-format csv", "-metrics-format"},

		// The churn engine replaces the distributed run: no runtime,
		// layer or run artifact applies to it.
		{"churn ok", "churn " + churn, ""},
		{"churn with goroutine runtime", "goroutine -churn " + churn, undefined + ": -churn"},
		{"churn with centralized runtime", "lic -churn " + churn, undefined + ": -churn"},
		{"churn with faults", "churn -faults dup=0.1 " + churn, undefined + ": -faults"},
		{"churn with reliable", "churn -reliable " + churn, undefined + ": -reliable"},
		{"churn with trace spans", "churn -trace-spans s.ndjson " + churn, undefined + ": -trace-spans"},
		{"churn with probes", "churn -probe-interval 1 " + churn, undefined + ": -probe-interval"},
		{"churn with dot", "churn -dot o.dot " + churn, undefined + ": -dot"},
		{"churn with metrics", "churn -metrics " + churn, undefined + ": -metrics"},
		{"churn knobs without churn", "event -repair-rounds 2", undefined + ": -repair-rounds"},
		{"negative shed depth", "churn -shed-depth -1 " + churn, "non-negative"},

		{"greedy scheduler ok", "event -scheduler greedy", ""},
		{"greedy batch ok", "event -scheduler greedy:batch=4", ""},
		{"greedy with reliable", "event -scheduler greedy -reliable", ""},
		{"bad scheduler", "event -scheduler eager", "scheduler"},
		{"greedy on goroutine", "goroutine -scheduler greedy", undefined + ": -scheduler"},
		{"greedy on centralized", "lic -scheduler greedy", undefined + ": -scheduler"},
		{"greedy with churn", "churn -scheduler greedy " + churn, undefined + ": -scheduler"},

		// Flags the single flag set accepted and silently ignored.
		{"reliable metrics ok", "event -metrics -reliable -detector on", ""},
		{"metrics on lic", "lic -metrics", undefined + ": -metrics"},
		{"jitter on goroutine", "goroutine -jitter 9 -faults-seed 5", undefined + ": -jitter"},
		{"jitter on udp", "udp -jitter 9", undefined + ": -jitter"},

		// Value checks within one subcommand.
		{"udp bad rto", "udp -rto 0", "-rto"},
		{"udp adaptive rto", "udp -adaptive-rto", ""},
		{"goroutine adaptive rto without reliable", "goroutine -adaptive-rto", "-adaptive-rto"},
		{"goroutine lossy faults without reliable", "goroutine -faults drop=0.1", "needs -reliable"},
		{"bad faults spec", "event -faults drop=2", "-faults"},
		{"bad detector spec", "udp -detector sometimes", "-detector"},
		{"negative phi threshold", "goroutine -phi-threshold -1", "-phi-threshold"},
		{"negative repair rounds", "churn -repair-rounds -1 " + churn, "non-negative"},

		// Positional arguments.
		{"no subcommand", "", "no subcommand"},
		{"old runtime flag", "-runtime event", "unknown subcommand"},
		{"churn without spec", "churn -n 40", "one SPEC"},
		{"churn off", "churn off", "no events"},
		{"churn bad spec", "churn leave=2", "leave"},
		{"churn two specs", "churn events=5 events=6", "one SPEC"},
		{"replay without file", "replay", "one FILE"},
		{"replay takes no flags", "replay -n 4 f.json", undefined + ": -n"},
		{"replay ok", "replay f.json", ""},
		{"stray argument", "event extra", "unexpected argument"},
		{"lic stray argument", "lic extra", "unexpected argument"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := parseArgs(strings.Fields(c.args))
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("%q: expected valid, got: %v", c.args, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("%q: expected error containing %q, got nil", c.args, c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("%q: error %q does not contain %q", c.args, err, c.wantErr)
			}
		})
	}
}

func TestValidateFlagsParsesScheduler(t *testing.T) {
	cmd, o, err := parseArgs([]string{"event", "-scheduler", "greedy:batch=3"})
	if err != nil {
		t.Fatal(err)
	}
	if cmd != "event" || !o.sched.Greedy() || o.sched.Batch != 3 {
		t.Fatalf("scheduler spec not threaded through: %q %+v", cmd, o.sched)
	}
}

// TestParseArgsValues: parsed values land in the options, the
// detector overrides apply, udp always runs the reliable layer, and
// a help request is reported rather than acted on.
func TestParseArgsValues(t *testing.T) {
	_, o, err := parseArgs([]string{"goroutine", "-seed", "7", "-hb-interval", "4", "-faults", "dup=0.1"})
	if err != nil {
		t.Fatal(err)
	}
	if o.seed != 7 || !o.det.Enabled() || o.det.Interval != 4 || o.faults.Dup != 0.1 {
		t.Fatalf("goroutine options: %+v", o)
	}
	if o.faultsSeed != 7^0x5fa715ca11edc0de {
		t.Fatalf("-faults-seed 0 should derive from -seed, got %d", o.faultsSeed)
	}
	if o.metricsFormat != "text" || o.spansFormat != "ndjson" || o.rto != 30 {
		t.Fatalf("defaults not applied: %+v", o)
	}
	if _, o, err := parseArgs([]string{"udp"}); err != nil || !o.reliable {
		t.Fatalf("udp: reliable=%v, %v", o.reliable, err)
	}
	_, o, err = parseArgs([]string{"churn", "-n", "30", "-workers", "2", "events=9"})
	if err != nil || o.churn.Events != 9 || o.n != 30 || o.workers != 2 {
		t.Fatalf("churn: %+v, %v", o, err)
	}
	for _, args := range [][]string{{"-h"}, {"help"}, {"event", "-h"}, {"replay", "-help"}} {
		if _, _, err := parseArgs(args); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("%q: got %v, want flag.ErrHelp", args, err)
		}
	}
}
