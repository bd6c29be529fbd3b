package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGolden pins tbstress's output byte for byte: the adversary lattice at
// its default and a smaller size, and the randomized campaign.
func TestGolden(t *testing.T) {
	for name, args := range map[string][]string{
		"exhaustive":       {"-mode", "exhaustive"},
		"exhaustive-msgs5": {"-mode", "exhaustive", "-msgs", "5"},
		"campaign":         {"-mode", "campaign"},
	} {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(args, &out); err != nil {
				t.Fatalf("tbstress %s: %v\n%s", strings.Join(args, " "), err, out.String())
			}
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := out.String(); got != string(want) {
				t.Errorf("tbstress %s:\n--- got ---\n%s--- want ---\n%s", strings.Join(args, " "), got, want)
			}
		})
	}
}

// TestSoakCampaign is the wide randomized sweep: every bundled object ×
// every delay policy × six seeds on four processes. Skipped under -short.
func TestSoakCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped with -short")
	}
	var out bytes.Buffer
	if err := run([]string{"-mode", "campaign", "-n", "4", "-seeds", "6"}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	t.Log(strings.TrimSpace(out.String()))
}
