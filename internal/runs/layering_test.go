package runs_test

import (
	"go/build"
	"strings"
	"testing"
)

// TestImportsOnlyFaultAndModel: a run is the record every layer shares —
// the simulator writes it, the codec and the proofs read it — so runs
// depends on none of them. Of this module it imports only internal/fault
// and internal/model.
func TestImportsOnlyFaultAndModel(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{"timebounds/internal/fault": true, "timebounds/internal/model": true}
	for _, path := range pkg.Imports {
		if strings.HasPrefix(path, "timebounds/") && !allowed[path] {
			t.Errorf("runs imports %s; it may import only internal/fault and internal/model of this module", path)
		}
	}
}
