// Command tb is the command-line front end to the paper's artifacts: one
// subcommand each for a single scenario (sim), parallel grids (grid), the
// lower-bound adversary families (adv), parameter sweeps and load studies
// (sweep), Tables I–IV (tables), space-time diagrams (trace), the
// Chapter II classification (classify) and the stress harnesses (stress).
// Every report is deterministic at a fixed seed except stress -mode live,
// which runs on the wall clock.
//
// Run tb alone for the subcommand list and tb <subcommand> -h for its
// flags. The exit status is 1 when a subcommand fails and 2 on a bad
// command line.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"timebounds/internal/model"
)

// command is one subcommand: its name, a one-line summary for the usage
// text, and the function that runs it.
type command struct {
	name, summary string
	run           func(args []string, stdout, stderr io.Writer) error
}

var commands = []command{
	{"sim", "run one scenario: history, latencies, bound margins", runSim},
	{"grid", "run a scenario grid in parallel, one report row per point", runGrid},
	{"adv", "the lower-bound adversary families as witness tables", runAdv},
	{"sweep", "parameter sweeps and the saturation and skew studies", runSweep},
	{"tables", "the paper's Tables I–IV with a measured column", runTables},
	{"trace", "runs as space-time diagrams (Figure 1, Theorem C.1)", runTrace},
	{"classify", "the Chapter II operation classification", runClassify},
	{"stress", "exhaustive lattice, randomized, sharded and live sweeps", runStress},
}

func main() {
	os.Exit(tb(os.Args[1:], os.Stdout, os.Stderr))
}

// tb dispatches args to a subcommand and returns the process exit status.
func tb(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		for _, c := range commands {
			if c.name != args[0] {
				continue
			}
			err := c.run(args[1:], stdout, stderr)
			var bad badFlags
			switch {
			case err == nil, errors.Is(err, flag.ErrHelp):
				return 0
			case errors.As(err, &bad):
				return 2 // the flag set has printed the error and its usage
			default:
				fmt.Fprintf(stderr, "tb %s: %v\n", c.name, err)
				return 1
			}
		}
		fmt.Fprintf(stderr, "tb: unknown subcommand %q\n", args[0])
	}
	fmt.Fprintln(stderr, "usage: tb <subcommand> [flags]\n\nsubcommands:")
	for _, c := range commands {
		fmt.Fprintf(stderr, "  %-9s %s\n", c.name, c.summary)
	}
	return 2
}

// badFlags marks a command-line parse error, which exits with status 2.
type badFlags struct{ error }

func (b badFlags) Unwrap() error { return b.error }

// newFlags returns the flag set of subcommand name, reporting to stderr.
func newFlags(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("tb "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parse parses args into fs, marking a failure as a command-line error.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return badFlags{err}
	}
	return nil
}

// modelFlags holds the model flags -n -d -u -eps -x -seed -ops, each
// registered only by the subcommands that take it.
type modelFlags struct {
	n, ops       int
	d, u, eps, x time.Duration
	seed         int64
}

// addModelFlags registers the space-separated subset names of the model
// flags on fs; n and ops are the subcommand's defaults for -n and -ops.
func addModelFlags(fs *flag.FlagSet, names string, n, ops int) *modelFlags {
	m := &modelFlags{}
	for _, name := range strings.Fields(names) {
		switch name {
		case "n":
			fs.IntVar(&m.n, "n", n, "number of processes")
		case "d":
			fs.DurationVar(&m.d, "d", 10*time.Millisecond, "message delay upper bound d")
		case "u":
			fs.DurationVar(&m.u, "u", 4*time.Millisecond, "message delay uncertainty u")
		case "eps":
			fs.DurationVar(&m.eps, "eps", 0, "clock skew bound ε (0 = optimal (1-1/n)u)")
		case "x":
			fs.DurationVar(&m.x, "x", 0, "accessor/mutator tradeoff X")
		case "seed":
			fs.Int64Var(&m.seed, "seed", 1, "workload/delay seed")
		case "ops":
			fs.IntVar(&m.ops, "ops", ops, "operations per process")
		default:
			panic("tb: no model flag " + name)
		}
	}
	return m
}

// params returns the model parameters the flags name, with ε = (1-1/n)u
// when -eps is 0, once validated.
func (m *modelFlags) params() (model.Params, error) {
	p := model.Params{N: m.n, D: m.d, U: m.u, Epsilon: m.eps}
	if p.Epsilon == 0 {
		p.Epsilon = p.OptimalSkew()
	}
	return p, p.Validate()
}

// list parses a comma-separated flag value element by element, trimming
// the spaces around each.
func list[T any](csv string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, s := range strings.Split(csv, ",") {
		v, err := parse(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
