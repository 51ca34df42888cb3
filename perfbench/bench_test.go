package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kite"
)

// shortCfg is a small run of workload name for the self-tests.
func shortCfg(t *testing.T, name string, trace bool) benchCfg {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return benchCfg{
		w: w, seed: 7, measure: time.Second, trace: trace,
		warmup: 200 * time.Millisecond, drain: 2 * time.Second, setups: 1,
		generators: 2, traceDir: t.TempDir(),
	}
}

type jsonResult struct {
	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// benchmarkJSON reads the metric contract the benchmark is run against.
func benchmarkJSON(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
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

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	endToEnd, perLayer := benchmarkJSON(t)
	for _, c := range []struct {
		defs []metricDef
		spec map[string]string
	}{{endToEndDefs, endToEnd}, {perLayerDefs, perLayer}} {
		if len(c.defs) != len(c.spec) {
			t.Errorf("program defines %d metrics, BENCHMARK.json %d", len(c.defs), len(c.spec))
		}
		for _, d := range c.defs {
			if u, ok := c.spec[d.name]; !ok || u != d.unit {
				t.Errorf("metric %s (%s): BENCHMARK.json has unit %q (listed: %v)", d.name, d.unit, u, ok)
			}
		}
	}
}

// TestSmoke runs every workload untraced and traced for one second each
// and checks that every metric of BENCHMARK.json is emitted with its unit
// and the run judged itself correct.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkJSON(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			cfg := shortCfg(t, w.name, trace)
			res, err := benchmark(cfg, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if trace && w.deploy == kindSharded {
				checkFenceSpans(t, filepath.Join(cfg.traceDir, "trace-"+w.name+".csv"))
			}
			var got jsonResult
			if err := json.Unmarshal([]byte(res.jsonLine()), &got); err != nil {
				t.Fatal(err)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if !got.Correct || got.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d\n%s", w.name, trace, got.Correct, got.Attempted, out.String())
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(got.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := got.Metrics[name]
				if !ok || m.Value == nil || m.Unit != unit || math.IsNaN(*m.Value) {
					t.Errorf("%s trace=%v: metric %s = %+v, want a value in %s", w.name, trace, name, m, unit)
				}
			}
			if !trace && got.Metrics["throughput_ops_s"].Value != nil && *got.Metrics["throughput_ops_s"].Value <= 0 {
				t.Errorf("%s: zero throughput", w.name)
			}
		}
	}
}

// checkFenceSpans checks the span file of a sharded traced run: every
// fence flush is the child of a release or FAA and lies inside it.
func checkFenceSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string][]string{}
	for _, r := range rows[1:] {
		ops[r[0]] = r
	}
	fences := 0
	for _, r := range rows[1:] {
		if r[2] != "shard.fence" {
			continue
		}
		fences++
		p, ok := ops[r[1]]
		if !ok || (p[2] != "op.release" && p[2] != "op.faa") {
			t.Fatalf("fence %v has parent %v, want a release or FAA", r, p)
		}
		if num(t, p[3]) > num(t, r[3]) || num(t, p[4]) < num(t, r[4]) {
			t.Fatalf("fence %v is not inside its parent %v", r, p)
		}
	}
	if fences == 0 {
		t.Fatal("no fence spans recorded")
	}
}

func num(t *testing.T, s string) int64 {
	t.Helper()
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// faultySession breaks the FAA contract twice: it swallows one FAA (never
// executed, never called back) and loses another (reported as done, never
// executed).
type faultySession struct {
	kite.Session
	swallow, lose *atomic.Bool
}

func (f *faultySession) DoAsync(op kite.Op, cb func(kite.Result)) {
	if op.Code == kite.OpFAA {
		if f.swallow.CompareAndSwap(false, true) {
			return
		}
		if f.lose.CompareAndSwap(false, true) {
			cb(kite.Result{Value: kite.EncodeUint64(1 << 40)})
			return
		}
	}
	f.Session.DoAsync(op, cb)
}

func TestLostAndSwallowedFAAAreCaught(t *testing.T) {
	cfg := shortCfg(t, "relaxed", false)
	// Both faults are armed once the timed window has begun, so the
	// swallowed op counts as attempted. The driven sessions are wrapped
	// just before the warm-up starts.
	var swallow, lose atomic.Bool
	swallow.Store(true)
	lose.Store(true)
	var arm sync.Once
	cfg.wrap = func(i int, s kite.Session) kite.Session {
		arm.Do(func() {
			time.AfterFunc(cfg.warmup+200*time.Millisecond, func() {
				swallow.Store(false)
				lose.Store(false)
			})
		})
		return &faultySession{Session: s, swallow: &swallow, lose: &lose}
	}
	var out bytes.Buffer
	res, err := benchmark(cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	if res.correct {
		t.Errorf("a lost FAA passed the correctness checks:\n%s", out.String())
	}
	if res.failed < 1 || res.vals["ok_ratio"].value >= 1 {
		t.Errorf("the swallowed FAA is not counted: failed=%d ok_ratio=%v", res.failed, res.vals["ok_ratio"].value)
	}
	if !strings.Contains(out.String(), "VIOLATION: counter") {
		t.Errorf("no counter violation reported:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "unfinished at the end of the drain") {
		t.Errorf("the swallowed FAA is not reported as unfinished:\n%s", out.String())
	}
}

func TestHistQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	var xs []int64
	for i := 0; i < 100000; i++ {
		x := int64(rng.ExpFloat64() * 200e3)
		xs = append(xs, x)
		h.add(x)
	}
	slices.Sort(xs)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := float64(xs[int(q*float64(len(xs)-1))])
		if got := h.quantile(q); math.Abs(got-exact)/exact > 0.01 {
			t.Errorf("q%.2f = %.0f, exact %.0f", q, got, exact)
		}
	}
}

func TestCleanSelection(t *testing.T) {
	w := &windowResult{slices: make([]sliceStats, 20)}
	if got := w.cleanSlices(); len(got) != 20 {
		t.Errorf("steal unknown: %d slices used, want all 20", len(got))
	}
	w.steal = make([]float64, 20)
	for i := range w.steal {
		w.steal[i] = float64(20 - i)
	}
	if got := w.cleanSlices(); !slices.Equal(got, []int{18, 19}) {
		t.Errorf("cleanest tenth = %v, want [18 19]", got)
	}
	w.steal[3], w.steal[7] = 1, 0
	if got := w.cleanSlices(); !slices.Equal(got, []int{3, 7, 19}) {
		t.Errorf("ties with the cutoff = %v, want [3 7 19]", got)
	}
	boots := []float64{0.9, 1.0, 2.5, 1.1, 3.0}
	if got := cleanSetup(boots, []float64{0, 0.01, 0.3, 0.02, 0.5}); got != 1.0 {
		t.Errorf("setup over the less stolen boots = %v, want 1.0", got)
	}
	if got := cleanSetup(boots, nil); got != 1.1 {
		t.Errorf("setup with steal unknown = %v, want 1.1 (median of all)", got)
	}
}

func TestLongestZeroRun(t *testing.T) {
	b := make([]uint64, 4)
	set := func(i int) { b[i/64] |= 1 << (i % 64) }
	set(3)
	set(200)
	if got := longestZeroRun(b, 256); got != 196 {
		t.Errorf("longest run = %d, want 196", got)
	}
	if got := longestZeroRun(make([]uint64, 2), 100); got != 100 {
		t.Errorf("empty bitmap: %d, want 100", got)
	}
}
