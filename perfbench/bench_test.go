package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func tinyConfig(workload string, seed uint64, trace bool) config {
	return config{workload: workload, seed: seed, trace: trace, sz: tinySizes, setupReps: 1}
}

// TestSmokeEveryMetric runs every workload at tiny sizes, traced and
// untraced, and checks that each declared metric is printed with its
// unit and sample count and lands in the JSON line, and nothing else.
func TestSmokeEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, wl := range workloadNames {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			res, err := measure(tinyConfig(wl, 3, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			var buf bytes.Buffer
			if err := report(&buf, res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var got struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", wl, trace, err)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl, trace, got.Correct, got.Attempted, got.Failed)
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics in the result, %d declared", wl, trace, len(got.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := got.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl, trace, name, m, unit)
				}
				if !tableHas(lines, name, unit) {
					t.Errorf("%s trace=%v: table has no line for %s with unit %s and a sample count", wl, trace, name, unit)
				}
			}
		}
	}
}

func tableHas(lines []string, name, unit string) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) == 4 && f[0] == name && f[2] == unit && strings.HasPrefix(f[3], "n=") {
			return true
		}
	}
	return false
}

// TestExactMetricsRepeat checks that the exact outputs repeat bit for
// bit at one seed, traced or not, and change at another seed.
func TestExactMetricsRepeat(t *testing.T) {
	for _, wl := range workloadNames {
		run := func(seed uint64, trace bool) []exact {
			w, err := newWorkload(wl, seed, tinySizes)
			if err != nil {
				t.Fatal(err)
			}
			var tr *tracer
			if trace {
				tr = newTracer()
			}
			var out []exact
			for i := 0; i < w.instances(); i++ {
				o, err := w.run(i, tr)
				if err != nil {
					t.Fatalf("%s seed %d instance %d: %v", wl, seed, i, err)
				}
				if tr != nil {
					tr.fold()
				}
				out = append(out, o.exact)
			}
			return out
		}
		a, b, traced, other := run(11, false), run(11, false), run(11, true), run(12, false)
		for i := range a {
			if a[i] != b[i] || a[i] != traced[i] {
				t.Errorf("%s instance %d: exact outputs differ across runs at one seed: %+v, %+v, traced %+v", wl, i, a[i], b[i], traced[i])
			}
			if a[i] == other[i] {
				t.Errorf("%s instance %d: seeds 11 and 12 give identical outputs %+v", wl, i, a[i])
			}
		}
	}
}

// TestSelfTimeUsesUnionOfChildren checks that overlapping children are
// not subtracted twice from their parent's duration.
func TestSelfTimeUsesUnionOfChildren(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{kind: kindExec, parent: -1, start: 0, end: 100},
		{kind: storeKind(layerCodec, opSave), parent: 0, start: 10, end: 40},
		{kind: storeKind(layerCodec, opSave), parent: 0, start: 30, end: 50}, // overlaps the first
		{kind: storeKind(layerCodec, opSave), parent: 0, start: 60, end: 70},
		{kind: storeKind(layerMem, opSave), parent: 3, start: 62, end: 65},
		{kind: kindSync, parent: -1, start: 100, end: 110},
	}
	if top := tr.fold(); top != 110 {
		t.Errorf("top-level duration %d, want 110", top)
	}
	if got := tr.kinds[kindExec].selfNs; got != 100-40-10 {
		t.Errorf("exec self %d, want 50", got)
	}
	if got := tr.kinds[storeKind(layerCodec, opSave)].selfNs; got != 30+20+10-3 {
		t.Errorf("codec self %d, want 57", got)
	}
	if len(tr.spans) != 0 || tr.ops != 1 {
		t.Errorf("fold left %d spans, %d ops", len(tr.spans), tr.ops)
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "plan-eval", "-trace", "2"},
		{"-no-such-flag"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code != 2 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q, want 2 and none", args, code, out.String())
		}
	}
}
