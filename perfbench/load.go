package main

import (
	"context"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"kite"
	"kite/internal/audit"
)

// epoch is the benchmark's clock origin; every timestamp is nanoseconds
// since it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

func sleepUntil(t int64) {
	if d := time.Duration(t - now()); d > 0 {
		time.Sleep(d)
	}
}

// windowCfg parameterises one timed window.
type windowCfg struct {
	w          *workload
	seed       int64
	warmup     time.Duration
	measure    time.Duration
	drain      time.Duration // bound on the end-of-window drain
	generators int
	tr         *tracer // nil: untraced
	// wrap, when set, wraps every driven session (self-tests inject
	// faulty sessions through it).
	wrap func(i int, s kite.Session) kite.Session
}

// probeEvery is the period of the traced run's probe ops.
const probeEvery = 2 * time.Millisecond

type sessKind uint8

const (
	kindDriven sessKind = iota
	kindFlushProbe
	kindRTTProbe
)

type drvSession struct {
	id    int
	kind  sessKind
	s     kite.Session
	gen   *opGen
	slots []*slot
	nops  uint64
	// Probe state: busy while a probe op is outstanding; next is when the
	// next probe is due; flushing marks the flush half of a flush probe.
	busy     bool
	flushing bool
	next     int64
}

// slot is one in-flight operation of a session. Each session owns window
// slots, so at most window ops of a session are outstanding.
type slot struct {
	sess   *drvSession
	op     kite.Op
	val    [valueLen]byte
	sent   int64
	done   int64
	res    kite.Result
	busy   bool
	spanID uint32
	fence  bool // registered as the parent of the shard layer's fences
	cb     func(kite.Result)
}

// ctrLedger is what one FAA counter must explain at the end of the run:
// acked FAAs (delta 1) and their returned old values, and FAAs whose
// outcome is unknown (failed, canceled or unfinished).
type ctrLedger struct {
	acked, unresolved uint64
	olds              []uint64
}

// generator is one load goroutine: it multiplexes its sessions through
// DoAsync and starts a session's next op when a previous one completes.
type generator struct {
	cfg        *windowCfg
	sessions   []*drvSession
	probes     []*drvSession
	ch         chan *slot
	t0, t1     int64
	fs, fe     int64
	drainUntil int64

	outstanding       int
	byCode            [5]hist // by kite.OpCode, read..faa
	slices            []sliceStats
	attempted, failed uint64
	ok, okBefore      uint64
	okFault           uint64
	gaps              []uint64 // 1 µs completion bitmap over the fault interval
	errs              map[string]uint64
	badReads          uint64
	badRead           string
	ctr               [numCounters]ctrLedger
	spans             []span
	probeSeq          uint64
}

// sliceStats is what one slice of the timed window measured.
type sliceStats struct {
	byCode [5]hist
	ok     uint64
}

// sliceLen is the length of the slices the timed window is split into.
const sliceLen = 250 * time.Millisecond

func numSlices(measure time.Duration) int {
	return max(1, int(measure/sliceLen))
}

// sampleSteal reads the host's steal counter at every slice boundary of
// [t0, t1) and returns the steal time of each slice in seconds, summed
// over the VM's CPUs. It returns nil where the counter cannot be read.
func sampleSteal(t0, t1 int64, n int) []float64 {
	marks := make([]float64, n+1)
	for i := range marks {
		sleepUntil(t0 + int64(i)*(t1-t0)/int64(n))
		v, ok := readSteal()
		if !ok {
			return nil
		}
		marks[i] = v
	}
	steal := make([]float64, n)
	for i := range steal {
		steal[i] = marks[i+1] - marks[i]
	}
	return steal
}

// readSteal returns the time, in seconds summed over all CPUs, that the
// hypervisor has kept this VM's runnable CPUs from running: the steal
// column of /proc/stat's aggregate line, in USER_HZ (1/100 s) ticks.
func readSteal() (float64, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseFloat(f[8], 64)
	return v / 100, err == nil
}

// windowResult is everything one timed window measured.
type windowResult struct {
	t0, t1            int64 // the timed window
	measure           time.Duration
	byCode            [5]hist
	slices            []sliceStats
	steal             []float64 // per slice, in CPU-seconds; nil if unknown
	attempted, failed uint64
	ok, okBefore      uint64
	okFault           uint64
	outage            time.Duration
	errs              map[string]uint64
	violations        []string
	delta             counters
	spans             []span
	fences            []span
	submitNs          float64
	audit             *audit.Summary
}

func (r *windowResult) violate(format string, args ...any) {
	if len(r.violations) < 20 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// runWindow drives d with the closed-loop load for warmup + measure, then
// drains for at most cfg.drain and checks the outputs.
func runWindow(d *deployment, cfg windowCfg) *windowResult {
	w := cfg.w
	start := now()
	t0 := start + int64(cfg.warmup)
	t1 := t0 + int64(cfg.measure)
	fs := t0 + int64(float64(cfg.measure)*faultStart)
	fe := t0 + int64(float64(cfg.measure)*faultEnd)

	var aud *audit.Auditor
	if cfg.tr != nil {
		aud = audit.New(audit.Config{KeyRate: auditKeyRate, Seed: cfg.seed})
	}
	gens := make([]*generator, cfg.generators)
	for i := range gens {
		gens[i] = &generator{
			cfg: &cfg, t0: t0, t1: t1, fs: fs, fe: fe,
			drainUntil: t1 + int64(cfg.drain),
			gaps:       make([]uint64, (fe-fs)/1000/64+1),
			slices:     make([]sliceStats, numSlices(cfg.measure)),
			errs:       map[string]uint64{},
		}
	}
	for i, s := range d.driven {
		if cfg.tr != nil {
			s = aud.Wrap(cfg.tr.timeSubmit(s))
		}
		if cfg.wrap != nil {
			s = cfg.wrap(i, s)
		}
		g := gens[i%len(gens)]
		g.sessions = append(g.sessions, &drvSession{
			id: i, kind: kindDriven, s: s, gen: newOpGen(w, cfg.seed, i),
		})
	}
	if cfg.tr != nil {
		gens[0].probes = append(gens[0].probes, &drvSession{
			id: -1, kind: kindFlushProbe, s: d.flushProbe, gen: newOpGen(w, cfg.seed, -1),
		})
		if d.rttProbe != nil {
			gens[0].probes = append(gens[0].probes, &drvSession{
				id: -2, kind: kindRTTProbe, s: d.rttProbe, gen: newOpGen(w, cfg.seed, -2),
			})
		}
	}
	for _, g := range gens {
		g.wire()
	}

	var wg sync.WaitGroup
	for _, g := range gens {
		wg.Add(1)
		go g.run(&wg)
	}
	var steal []float64
	stealDone := make(chan struct{})
	go func() {
		defer close(stealDone)
		steal = sampleSteal(t0, t1, numSlices(cfg.measure))
	}()
	sleepUntil(t0)
	before := d.counters()
	if w.fault {
		sleepUntil(fs)
		d.isolate(true)
		sleepUntil(fe)
		d.isolate(false)
	}
	sleepUntil(t1)
	after := d.counters()
	wg.Wait()
	<-stealDone

	r := &windowResult{
		t0: t0, t1: t1,
		measure: cfg.measure,
		errs:    map[string]uint64{},
		delta:   after.sub(before),
		steal:   steal,
	}
	// The slices merge into the first generator's: a window keeps one
	// histogram per op code and slice per generator, and no more.
	r.slices = gens[0].slices
	var ledgers [numCounters]ctrLedger
	gaps := make([]uint64, len(gens[0].gaps))
	for _, g := range gens {
		for c := range r.byCode {
			r.byCode[c].merge(&g.byCode[c])
		}
		for i := range r.slices {
			if g == gens[0] {
				break
			}
			for c := range r.slices[i].byCode {
				r.slices[i].byCode[c].merge(&g.slices[i].byCode[c])
			}
			r.slices[i].ok += g.slices[i].ok
		}
		r.attempted += g.attempted
		r.failed += g.failed
		r.ok += g.ok
		r.okBefore += g.okBefore
		r.okFault += g.okFault
		for i, b := range g.gaps {
			gaps[i] |= b
		}
		for e, n := range g.errs {
			r.errs[e] += n
		}
		if g.badReads > 0 {
			r.violate("%d reads returned a value not written to their key, e.g. %s", g.badReads, g.badRead)
		}
		for c := range ledgers {
			ledgers[c].acked += g.ctr[c].acked
			ledgers[c].unresolved += g.ctr[c].unresolved
			ledgers[c].olds = append(ledgers[c].olds, g.ctr[c].olds...)
		}
		r.spans = append(r.spans, g.spans...)
	}
	r.outage = time.Duration(longestZeroRun(gaps, int((fe-fs)/1000))) * time.Microsecond
	checkCounters(r, d.check, &ledgers)
	if cfg.tr != nil {
		aud.Close()
		r.audit = aud.Summary()
		r.fences = cfg.tr.takeFences()
		r.submitNs = cfg.tr.submitNs()
	}
	return r
}

// checkCounters acquire-reads every FAA counter and checks it against the
// ledger: acked <= value <= acked + unresolved, and the acked FAAs
// returned distinct old values below the final value.
func checkCounters(r *windowResult, check kite.Session, ledgers *[numCounters]ctrLedger) {
	for c := range ledgers {
		l := &ledgers[c]
		key := uint64(counterBase + c)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		res, err := check.Do(ctx, kite.AcquireOp(key))
		cancel()
		if err != nil {
			r.violate("counter %d: acquire-read failed: %v", key, err)
			continue
		}
		v := res.Uint64()
		if v < l.acked || v > l.acked+l.unresolved {
			r.violate("counter %d = %d, want within [%d, %d] (acked %d, unresolved %d)",
				key, v, l.acked, l.acked+l.unresolved, l.acked, l.unresolved)
		}
		slices.Sort(l.olds)
		for i, o := range l.olds {
			if o >= v || (i > 0 && o == l.olds[i-1]) {
				r.violate("counter %d: FAA returned old value %d twice or at/above the final %d", key, o, v)
				break
			}
		}
	}
}

// longestZeroRun returns the longest run of clear bits among the first n
// bits of b: the longest interval with no completion.
func longestZeroRun(b []uint64, n int) int {
	best, run := 0, 0
	for i := 0; i < n; i++ {
		if b[i/64]&(1<<(i%64)) != 0 {
			run = 0
			continue
		}
		if b[i/64] == 0 && i%64 == 0 && i+64 <= n {
			run += 64
			i += 63
		} else {
			run++
		}
		best = max(best, run)
	}
	return best
}

// wire allocates the sessions' slots, their completion callbacks and the
// completion channel, sized so a callback never blocks.
func (g *generator) wire() {
	n := len(g.probes)
	for _, s := range g.sessions {
		n += window
		for i := 0; i < window; i++ {
			s.slots = append(s.slots, g.newSlot(s))
		}
	}
	for _, p := range g.probes {
		p.slots = []*slot{g.newSlot(p)}
	}
	g.ch = make(chan *slot, n)
}

func (g *generator) newSlot(s *drvSession) *slot {
	sl := &slot{sess: s}
	tr := g.cfg.tr
	sl.cb = func(r kite.Result) {
		sl.res = r
		sl.done = now()
		if sl.fence {
			tr.popParent(sl.sess.id)
		}
		g.ch <- sl
	}
	return sl
}

func (g *generator) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for _, s := range g.sessions {
		for _, sl := range s.slots {
			g.startNext(sl)
		}
	}
	timer := time.NewTimer(time.Duration(g.drainUntil - now()))
	defer timer.Stop()
	for g.outstanding > 0 {
		select {
		case sl := <-g.ch:
			g.complete(sl)
			g.pollProbes()
		case <-timer.C:
			g.abandon()
			return
		}
	}
}

func (g *generator) startNext(sl *slot) {
	s := sl.sess
	s.gen.next(&sl.op, sl.val[:])
	sl.spanID, sl.fence = 0, false
	if tr := g.cfg.tr; tr != nil {
		s.nops++
		if isSync(sl.op.Code) || s.nops%relaxedSpanEvery == 0 {
			sl.spanID = tr.newID()
		}
		if tr.trackFences && needsFence(sl.op.Code) {
			sl.fence = true
			tr.pushParent(s.id, sl.spanID)
		}
	}
	g.submit(sl)
	if sl.sent >= g.t0 && sl.sent < g.t1 {
		g.attempted++
	}
}

func (g *generator) submit(sl *slot) {
	sl.busy = true
	g.outstanding++
	sl.sent = now()
	sl.sess.s.DoAsync(sl.op, sl.cb)
}

func (g *generator) complete(sl *slot) {
	sl.busy = false
	g.outstanding--
	if sl.sess.kind != kindDriven {
		g.probeDone(sl)
		return
	}
	op, res := &sl.op, &sl.res
	if res.Err != nil {
		if sl.sent >= g.t0 && sl.sent < g.t1 {
			g.failed++
		}
		g.noteErr(res.Err.Error())
		if op.Code == kite.OpFAA {
			g.ctr[op.Key-counterBase].unresolved++
		}
	} else {
		if sl.done >= g.t0 && sl.done < g.t1 {
			g.byCode[op.Code].add(sl.done - sl.sent)
			g.ok++
			sc := &g.slices[int((sl.done-g.t0)*int64(len(g.slices))/(g.t1-g.t0))]
			sc.byCode[op.Code].add(sl.done - sl.sent)
			sc.ok++
			switch {
			case sl.done < g.fs:
				g.okBefore++
			case sl.done < g.fe:
				g.okFault++
				us := (sl.done - g.fs) / 1000
				g.gaps[us/64] |= 1 << (us % 64)
			}
		}
		switch op.Code {
		case kite.OpRead, kite.OpAcquire:
			if k, ok := valueKey(res.Value); !ok || k != op.Key {
				g.badReads++
				g.badRead = fmt.Sprintf("%v of key %d returned %x", op.Code, op.Key, res.Value)
			}
		case kite.OpFAA:
			l := &g.ctr[op.Key-counterBase]
			l.acked++
			l.olds = append(l.olds, res.Uint64())
		}
	}
	if sl.spanID != 0 {
		g.spans = append(g.spans, span{id: sl.spanID, kind: spanKind(op.Code), start: sl.sent, end: sl.done})
	}
	if now() < g.t1 {
		g.startNext(sl)
	}
}

func (g *generator) noteErr(e string) {
	if _, ok := g.errs[e]; ok || len(g.errs) < 8 {
		g.errs[e]++
	}
}

// abandon ends the drain: every op still outstanding counts as failed
// (and, for an FAA, as unresolved: it may yet take effect).
func (g *generator) abandon() {
	for _, s := range g.sessions {
		for _, sl := range s.slots {
			if !sl.busy {
				continue
			}
			if sl.sent >= g.t0 && sl.sent < g.t1 {
				g.failed++
			}
			g.noteErr("unfinished at the end of the drain")
			if sl.op.Code == kite.OpFAA {
				g.ctr[sl.op.Key-counterBase].unresolved++
			}
		}
	}
}

// pollProbes starts any probe that is idle and due. Probes run only until
// the end of the timed window and are not counted as load.
func (g *generator) pollProbes() {
	if len(g.probes) == 0 {
		return
	}
	t := now()
	if t >= g.t1 {
		return
	}
	for _, p := range g.probes {
		if p.busy || t < p.next {
			continue
		}
		p.busy = true
		sl := p.slots[0]
		switch p.kind {
		case kindFlushProbe:
			// A relaxed write then a flush: the flush waits for the
			// write's acks from every replica.
			g.probeSeq++
			key := uint64(probeBase)
			putValue(sl.val[:], key, 1<<62|g.probeSeq)
			sl.op = kite.WriteOp(key, sl.val[:])
		case kindRTTProbe:
			sl.op = kite.ReadOp(p.gen.dataKey())
		}
		g.submit(sl)
	}
}

func (g *generator) probeDone(sl *slot) {
	p := sl.sess
	if p.kind == kindFlushProbe && !p.flushing {
		p.flushing = true
		sl.op = kite.FlushOp()
		g.submit(sl)
		return
	}
	p.busy, p.flushing = false, false
	p.next = sl.done + int64(probeEvery)
	if sl.res.Err != nil {
		g.noteErr("probe: " + sl.res.Err.Error())
		return
	}
	if sl.done >= g.t0 && sl.done < g.t1 {
		kind := spanProbeFlush
		if p.kind == kindRTTProbe {
			kind = spanProbeRead
		}
		g.spans = append(g.spans, span{kind: kind, start: sl.sent, end: sl.done})
	}
}

func isSync(c kite.OpCode) bool {
	return c == kite.OpRelease || c == kite.OpAcquire || c == kite.OpFAA
}

// needsFence mirrors the shard layer: ops with release semantics fence
// the session's writes in every other group first.
func needsFence(c kite.OpCode) bool {
	return c == kite.OpRelease || c == kite.OpFAA
}
