// Command perfbench is the Kite benchmark: it drives one named workload
// against the public deployment APIs (kite.Cluster, sharded.Cluster, and
// client over loopback UDP) with a closed-loop load, checks the outputs,
// and prints every end-to-end metric — or, with --trace 1, every
// per-layer metric. See README.md.
//
//	perfbench --workload relaxed --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. The exit code is 1 on a failed
// correctness check or a run that could not complete.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"kite"
)

// gomaxprocs is pinned so every run uses the same parallelism.
const gomaxprocs = 2

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// benchCfg is one benchmark invocation.
type benchCfg struct {
	w          *workload
	seed       int64
	measure    time.Duration
	trace      bool
	warmup     time.Duration
	drain      time.Duration
	setups     int // boots per untraced run; setup_s is their median
	generators int
	traceDir   string
	// wrap wraps the driven sessions of every window (self-tests only).
	wrap func(i int, s kite.Session) kite.Session
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: relaxed, sync-skew, remote or failover")
	seed := fs.Int64("seed", 1, "seed every key and op is generated from")
	seconds := fs.Int("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	runtime.GOMAXPROCS(gomaxprocs)
	cfg := benchCfg{
		w: w, seed: *seed, measure: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, warmup: time.Second, drain: 3 * time.Second, setups: 5,
		generators: min(runtime.NumCPU(), gomaxprocs), traceDir: ".bench_build/traces",
	}
	res, err := benchmark(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, res.jsonLine())
	if !res.correct {
		fmt.Fprintln(stderr, "perfbench: correctness check failed")
		return 1
	}
	return 0
}

// bootAndPrefill deploys the workload and writes every data key once.
func bootAndPrefill(w *workload, generators int, tr *tracer) (*deployment, error) {
	d, err := deploy(w, generators, tr)
	if err != nil {
		return nil, fmt.Errorf("deploy %s: %w", w.name, err)
	}
	if err := prefill(d); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func benchmark(cfg benchCfg, out io.Writer) (*result, error) {
	res := &result{correct: true}
	res.printMeta(out, cfg)
	drive := func(d *deployment, tr *tracer) *windowResult {
		r := runWindow(d, windowCfg{
			w: cfg.w, seed: cfg.seed, warmup: cfg.warmup, measure: cfg.measure,
			drain: cfg.drain, generators: cfg.generators, tr: tr, wrap: cfg.wrap,
		})
		d.close()
		res.attempted += r.attempted
		res.failed += r.failed
		res.judge(out, r)
		return r
	}

	if !cfg.trace {
		var setups, steal []float64
		stealKnown := true
		var d *deployment
		for i := 0; i < cfg.setups; i++ {
			if d != nil {
				d.close()
			}
			st0, ok0 := readSteal()
			start := time.Now()
			var err error
			if d, err = bootAndPrefill(cfg.w, cfg.generators, nil); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(start).Seconds())
			st1, ok1 := readSteal()
			steal = append(steal, st1-st0)
			stealKnown = stealKnown && ok0 && ok1
		}
		if !stealKnown {
			steal = nil
		}
		res.endToEnd(out, drive(d, nil), cleanSetup(setups, steal))
		res.print(out)
		return res, nil
	}

	d, err := bootAndPrefill(cfg.w, cfg.generators, nil)
	if err != nil {
		return nil, err
	}
	plain := drive(d, nil)
	tr := newTracer(cfg.w)
	if d, err = bootAndPrefill(cfg.w, cfg.generators, tr); err != nil {
		return nil, err
	}
	traced := drive(d, tr)
	path := filepath.Join(cfg.traceDir, "trace-"+cfg.w.name+".csv")
	if err := writeSpans(path, traced.spans, traced.fences); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(out, "# spans written to %s\n", path)
	if err := res.perLayer(cfg, d, plain, traced); err != nil {
		return nil, err
	}
	res.print(out)
	return res, nil
}

// cleanSetup is setup_s: the median boot+prefill time of the cleaner half
// of the boots, by the CPU time the hypervisor stole during each (as for
// the window's slices), or of every boot when steal is unknown.
func cleanSetup(setups, steal []float64) float64 {
	if steal == nil {
		return median(setups)
	}
	var xs []float64
	for _, i := range leastStolen(steal, 0.5) {
		xs = append(xs, setups[i])
	}
	return median(xs)
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
