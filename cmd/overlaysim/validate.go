package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"slices"
	"strings"

	"overlaymatch/internal/detector"
	"overlaymatch/internal/dynamic"
)

// check takes the positional arguments and makes the value checks that
// read more than one flag of subcommand cmd.
func (o *options) check(cmd string, args []string) error {
	switch {
	case cmd == "replay" && len(args) == 1:
		o.replayPath = args[0]
		return nil
	case cmd == "replay":
		return errors.New("replay takes one FILE argument")
	case cmd == "churn" && len(args) != 1:
		return errors.New(`churn takes one SPEC argument, e.g. "events=200,leave=0.5,minalive=8,rate=2"`)
	case cmd == "churn" && (o.repairRounds < 0 || o.shedDepth < 0):
		return errors.New("-repair-rounds and -shed-depth must be non-negative")
	case cmd == "churn":
		spec, err := dynamic.ParseChurnSpec(args[0])
		if err == nil && spec.IsZero() {
			err = fmt.Errorf("churn SPEC %q schedules no events", args[0])
		}
		o.churn = spec
		return err
	case len(args) > 0:
		return fmt.Errorf("unexpected argument %q", args[0])
	case cmd == "lic":
		return nil
	case o.rto <= 0:
		return fmt.Errorf("-rto must be positive, got %v (the retransmission timer would never fire)", o.rto)
	case o.adaptiveRTO && !o.reliable:
		return errors.New("-adaptive-rto tunes the retransmission timer and needs -reliable")
	case !o.faults.PreservesDelivery() && !o.reliable:
		return fmt.Errorf("-faults %q loses messages; bare LID needs -reliable to survive it", o.faults)
	case o.probeInterval < 0:
		return errors.New("-probe-interval must be non-negative")
	case o.hbInterval < 0 || o.phiThreshold < 0:
		return errors.New("-hb-interval and -phi-threshold must be non-negative")
	}
	if o.hbInterval > 0 || o.phiThreshold > 0 {
		if !o.det.Enabled() {
			o.det = detector.Default()
		}
		o.det.Interval = cmp.Or(o.hbInterval, o.det.Interval)
		o.det.Phi = cmp.Or(o.phiThreshold, o.det.Phi)
		if err := o.det.Validate(); err != nil {
			return err
		}
	}
	if o.faultsSeed == 0 {
		o.faultsSeed = o.seed ^ 0x5fa715ca11edc0de
	}
	return nil
}

// choice registers a string flag restricted to choices, so a bad value
// fails in flag parsing. The first choice is the default.
func choice(fs *flag.FlagSet, p *string, name, usage string, choices ...string) {
	*p = choices[0]
	all := strings.Join(choices, " | ")
	fs.Func(name, fmt.Sprintf("%s: %s (default %s)", usage, all, choices[0]), func(s string) error {
		if !slices.Contains(choices, s) {
			return fmt.Errorf("want %s", all)
		}
		*p = s
		return nil
	})
}
