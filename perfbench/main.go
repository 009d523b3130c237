// Command perfbench is the repository's benchmark: one closed-loop
// client goroutine runs one workload's ops back to back for a fixed
// time, checks every op's outputs, and prints the end-to-end metrics
// (or, with -trace 1, the per-layer metrics) as a table followed by a
// one-line JSON result. See README.md for the workloads and metrics.
//
//	go run . -workload exec-durable -seed 1 -seconds 30 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// config is one benchmark run.
type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	sz        sizes
	setupReps int // set-ups per run; setup_s is their median
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{sz: fullSizes, setupReps: 7}
	fs.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("workload to run, one of %v", workloadNames))
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's instances are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "how long to measure, in seconds")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *traceFlag)
		return 2
	}
	cfg.trace = *traceFlag == 1
	if !slices.Contains(workloadNames, cfg.workload) {
		fmt.Fprintf(stderr, "perfbench: -workload must be one of %v, got %q\n", workloadNames, cfg.workload)
		return 2
	}
	printEnv(stdout, cfg)
	res, err := measure(cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := report(stdout, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// printEnv starts the output with what the numbers depend on, so runs
// on different machines are never compared silently.
func printEnv(w io.Writer, cfg config) {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "unset(100)"
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	fmt.Fprintf(w, "# env go=%s goos=%s goarch=%s gomaxprocs=%d nproc=%d gogc=%s seed=%d workload=%s trace=%d seconds=%g\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(), gogc,
		cfg.seed, cfg.workload, trace, cfg.seconds)
}

// sample is one measured op.
type sample struct {
	ms    float64
	alloc uint64
}

// result is everything a run measured.
type result struct {
	cfg       config
	setupS    []float64
	untraced  []sample // measured untraced ops
	traced    []sample // measured traced ops (-trace 1)
	coverage  []float64
	attempted int
	failed    int
	exact     []*exact // per instance, from its first successful op
	tr        *tracer
	layer     tally // per-op counters summed over traced ops
	loop      time.Duration
	peakRSSMB float64
}

// maxReported bounds how many failed ops are described on stderr.
const maxReported = 5

// measure sets the workload up setupReps times, each on a collected
// heap with the previous set-up dropped, runs one untimed warm-up op
// per instance, then runs ops until cfg.seconds have passed and every
// instance has run. With tracing, ops come in pairs on the same
// instance, one traced and one not, in alternating order.
func measure(cfg config, stderr io.Writer) (*result, error) {
	res := &result{cfg: cfg, layer: tally{}}
	var wl workload
	for r := 0; r < cfg.setupReps; r++ {
		wl = nil
		runtime.GC()
		t0 := time.Now()
		w, err := newWorkload(cfg.workload, cfg.seed, cfg.sz)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		wl = w
	}
	n := wl.instances()
	res.exact = make([]*exact, n)

	one := func(i int, tr *tracer) (outcome, bool) {
		res.attempted++
		o, err := wl.run(i, tr)
		if err == nil {
			if ref := res.exact[i]; ref == nil {
				e := o.exact
				res.exact[i] = &e
			} else if *ref != o.exact {
				err = fmt.Errorf("outputs %+v differ from the instance's earlier op %+v", o.exact, *ref)
			}
		}
		if err != nil {
			res.failed++
			if res.failed <= maxReported {
				fmt.Fprintf(stderr, "perfbench: op %d on instance %d failed: %v\n", res.attempted, i, err)
			}
			return o, false
		}
		return o, true
	}

	for i := 0; i < n; i++ {
		one(i, nil)
	}
	if cfg.trace {
		res.tr = newTracer()
	}
	minOps := n
	if cfg.trace {
		minOps = 2 * n
	}
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for k := 0; k < minOps || time.Now().Before(deadline) || (cfg.trace && k%2 == 1); k++ {
		i, traced := k%n, false
		if cfg.trace {
			pair := k / 2
			i, traced = pair%n, (k%2 == 1) != (pair%2 == 1)
		}
		if !traced {
			if o, ok := one(i, nil); ok {
				res.untraced = append(res.untraced, sample{ms: ms(o.wall), alloc: o.alloc})
			}
			continue
		}
		o, ok := one(i, res.tr)
		top := res.tr.fold()
		if !ok {
			continue
		}
		res.traced = append(res.traced, sample{ms: ms(o.wall), alloc: o.alloc})
		res.coverage = append(res.coverage, float64(top)/float64(o.wall))
		for name, v := range o.tally {
			res.layer.add(name, v)
		}
	}
	res.loop = time.Since(start)
	res.peakRSSMB = peakRSSMB()
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// jsonMetric is one metric in the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the metric table, then the JSON result as the last line.
func report(w io.Writer, res *result) error {
	var shown, reported []metric
	if res.cfg.trace {
		reported = layerMetrics(res)
		shown = reported
	} else {
		reported = endToEnd(res)
		shown = append(append(shown, reported...), exactExtras(res)...)
	}
	for _, m := range shown {
		fmt.Fprintf(w, "%-36s %18.6f %-6s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{
		Correct:   res.failed == 0 && len(res.untraced) > 0 && res.coverageOK(),
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, m := range reported {
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
