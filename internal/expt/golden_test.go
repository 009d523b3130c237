package expt_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/expt"
	"repro/internal/expt/render"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// TestRuntimeGoldens pins the determinism contract of the runtime
// experiments E18–E21: their fingerprints at Config{Seed: 7, Quick:
// true} must equal the checked-in goldens byte for byte. Any change is
// a journal, store-stack or table change that must be declared;
// regenerate with `go test ./internal/expt -run TestRuntimeGoldens
// -update` and review the diff.
func TestRuntimeGoldens(t *testing.T) {
	cfg := expt.Config{Seed: 7, Quick: true}
	for _, id := range []string{"E18", "E19", "E20", "E21"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			s, ok := expt.ByID(id)
			if !ok {
				t.Fatalf("%s missing", id)
			}
			tables, err := expt.Execute(cfg, s)
			if err != nil {
				t.Fatal(err)
			}
			got := render.Fingerprint(tables)
			path := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if got != string(want) {
				t.Errorf("%s fingerprint differs from %s; diff it against `go test -run TestRuntimeGoldens -update`:\n%s", id, path, got)
			}
		})
	}
}
