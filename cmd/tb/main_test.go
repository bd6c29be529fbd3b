package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata goldens from the current code")

// TestGolden pins every subcommand's stdout byte for byte against
// testdata/<name>.golden; -update rewrites them. Each invocation is
// deterministic at any worker count; progress lines go to stderr and are
// not compared.
func TestGolden(t *testing.T) {
	for name, args := range map[string]string{
		"sim-verify":        "sim -verify",
		"grid-verify":       "grid -verify",
		"grid-shards":       "grid -shards 3 -keys 12 -verify",
		"grid-migrate":      "grid -backends algorithm1 -ns 3 -shards 3 -keys 60 -ops 6 -seeds 1 -verify -migrate",
		"grid-adversary":    "grid -types register -adversary c1,d1,e1",
		"grid-faults":       "grid -types register -faults all -verify",
		"adv-default":       "adv",
		"adv-faults-json":   "adv -faults all -json",
		"adv-us-json":       "adv -us 1ms,2ms,4ms,8ms -json",
		"sweep-x":           "sweep",
		"sweep-n":           "sweep -sweep n",
		"sweep-base":        "sweep -sweep base",
		"sweep-gap":         "sweep -sweep gap",
		"sweep-load":        "sweep -sweep load -ops 6 -steps 4",
		"sweep-skew":        "sweep -sweep skew -n 3 -keys 2000 -shards 4 -exponents 1.2,2.0 -loads 60,600 -ops 40",
		"tables-all":        "tables",
		"trace-quickstart":  "trace",
		"trace-fig1":        "trace -scenario fig1",
		"trace-thmC1":       "trace -scenario thmC1",
		"trace-json":        "trace -json",
		"classify-bounds":   "classify -bounds",
		"stress-sharded":    "stress -mode sharded",
		"stress-exhaustive": "stress -mode exhaustive",
		"stress-campaign":   "stress -mode campaign",
	} {
		t.Run(name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if code := tb(strings.Fields(args), &out, &errOut); code != 0 {
				t.Fatalf("tb %s: exit %d\n%s", args, code, errOut.String())
			}
			path := filepath.Join("testdata", name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := out.String(); got != string(want) {
				t.Errorf("tb %s:\n--- got ---\n%s--- want ---\n%s", args, got, want)
			}
		})
	}
}

// TestErrors pins the exit status and the stderr diagnosis of bad
// invocations: 2 for a bad command line, 1 for a failed run.
func TestErrors(t *testing.T) {
	for _, tc := range []struct {
		args string
		code int
		want string
	}{
		{"", 2, "subcommands:"},
		{"bogus", 2, `unknown subcommand "bogus"`},
		{"sim -bogus", 2, "flag provided but not defined: -bogus"},
		{"sim -d 1ms -u 4ms", 1, "U must be in [0, D=1ms]"},
		{"classify -n 0 -bounds", 1, "N must be >= 1"},
		{"tables -table 7", 1, "-table takes 1-4, or 0 for all"},
		{"sweep -sweep gap -steps 0", 1, "gap sweep needs -steps ≥ 1"},
		{"grid -migrate", 1, "-migrate requires -shards"},
		{"grid -ns 3,x", 1, `bad n "x"`},
	} {
		var out, errOut bytes.Buffer
		code := tb(strings.Fields(tc.args), &out, &errOut)
		if code != tc.code || !strings.Contains(errOut.String(), tc.want) {
			t.Errorf("tb %s: exit %d, stderr %q; want exit %d, stderr containing %q",
				tc.args, code, errOut.String(), tc.code, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("tb %s: printed %q to stdout before failing", tc.args, out.String())
		}
	}
}

// TestReadmeNamesEverySubcommand keeps README.md's Tools section in step
// with the dispatch table.
func TestReadmeNamesEverySubcommand(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, tools, ok := strings.Cut(string(raw), "\n## Tools\n")
	if !ok {
		t.Fatal("README has no Tools section")
	}
	tools, _, _ = strings.Cut(tools, "\n## ")
	for _, c := range commands {
		if !strings.Contains(tools, "`tb "+c.name+"`") {
			t.Errorf("README's Tools section does not name `tb %s`", c.name)
		}
	}
}

// TestSoakCampaign is the wide randomized sweep: every bundled object ×
// every delay policy × six seeds on four processes. Skipped under -short.
func TestSoakCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped with -short")
	}
	var out, errOut bytes.Buffer
	if code := tb([]string{"stress", "-mode", "campaign", "-n", "4", "-seeds", "6"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errOut.String())
	}
	t.Log(strings.TrimSpace(out.String()))
}
