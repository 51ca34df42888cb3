// Command kite-chaos runs a seeded, reproducible chaos schedule against a
// Kite deployment while a history-recording workload executes, then
// verifies the recorded history against the RC/k-atomicity checker.
//
// The schedule is a pure function of -seed: re-running with the same flags
// replays the identical nemesis timeline, so a failing run's report is its
// own reproduction recipe.
//
// Usage:
//
//	kite-chaos -seed 1 -duration 30s -backend inproc
//	kite-chaos -backend sharded -groups 2 -nemeses drop-link,stop-restart
//	kite-chaos -backend remote -json report.json -history history.jsonl
//	kite-chaos -nemeses crash-all     # durability: SIGKILL all, restart from WAL
//	kite-chaos -nemeses local-reads   # attack the local-acquire valid-bit window
//	kite-chaos -nemeses wire-batching # attack the batched transport's flush window
//	kite-chaos -nemeses online-audit  # ride the standing online auditor through the run
//	kite-chaos -plan -seed 7          # print the timeline, run nothing
//
// The crash-all nemesis kills every node at once and restarts them from
// their write-ahead logs; it requires a WAL (-wal-dir, or the temporary
// directory the tool creates when the flag is omitted) and is excluded
// from the default nemesis mix.
//
// Exit status: 0 — run passed; 1 — consistency violations or missing
// fault evidence; 2 — the run itself failed (boot error, lifecycle error).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"kite"
	"kite/internal/chaos"
	"kite/internal/history"
	"kite/internal/testcluster"
	"kite/sharded"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "schedule seed; same seed, same nemesis timeline")
		duration = flag.Duration("duration", 30*time.Second, "nemesis window (every fault heals inside it)")
		backend  = flag.String("backend", "inproc", "deployment flavour: inproc | sharded | remote")
		nodes    = flag.Int("nodes", 3, "replicas per group")
		groups   = flag.Int("groups", 2, "replica groups (sharded backend)")
		nemeses  = flag.String("nemeses", "", "comma-separated nemesis kinds (default: all of "+kindList()+"); 'local-reads' expands to the schedule attacking the local-acquire fast path, 'wire-batching' to the one attacking the batched transport's flush window, 'online-audit' to the latency-biased mix with the standing online auditor riding the workload")
		online   = flag.Bool("online", false, "ride the internal/audit online auditor on every recorded workload session; the run fails if it reports a violation the offline verifier does not confirm")
		verify   = flag.Bool("verify", true, "run the RC/k-atomicity verifier over the recorded history")
		jsonPath = flag.String("json", "", "write the JSON run report here ('-' for stdout)")
		histPath = flag.String("history", "", "write the recorded history (JSON lines) here")
		plan     = flag.Bool("plan", false, "print the generated schedule and exit without running")
		walDir   = flag.String("wal-dir", "", "per-node write-ahead logs under this directory (required by crash-all; a temp dir is created if omitted)")
	)
	flag.Parse()

	cfg := chaos.Config{Seed: *seed, Duration: *duration, Nodes: *nodes}
	wantCrashAll := false
	if *nemeses != "" {
		for _, name := range strings.Split(*nemeses, ",") {
			name = strings.TrimSpace(name)
			if name == "local-reads" {
				// Named schedule: the delay-biased mix attacking the
				// local-acquire fast path's invalidate→validate window.
				cfg.Kinds = append(cfg.Kinds, chaos.LocalReadsKinds()...)
				continue
			}
			if name == "wire-batching" {
				// Named schedule: the delay-biased mix attacking the
				// batched transport's staged-not-yet-posted window, plus
				// unrecorded burst sessions whose high-fanout relaxed
				// writes keep the send rings busy while the nemeses run.
				cfg.Kinds = append(cfg.Kinds, chaos.WireBatchingKinds()...)
				if cfg.BurstSessions == 0 {
					cfg.BurstSessions = 4
				}
				continue
			}
			if name == "online-audit" {
				// Named schedule: the latency-biased mix with the standing
				// online auditor riding every recorded workload session.
				cfg.Kinds = append(cfg.Kinds, chaos.OnlineAuditKinds()...)
				cfg.OnlineAudit = true
				continue
			}
			k := chaos.NemesisKind(name)
			if !validKind(k) {
				fatalf("unknown nemesis kind %q (have: %s, %s or the local-reads / wire-batching / online-audit schedules)", k, kindList(), chaos.KindCrashAll)
			}
			cfg.Kinds = append(cfg.Kinds, k)
			if k == chaos.KindCrashAll {
				wantCrashAll = true
			}
		}
	}

	if *plan {
		for _, a := range chaos.Generate(cfg).Actions {
			fmt.Println(a)
		}
		return
	}

	// crash-all recovers exclusively from disk; without a WAL the run can
	// only fail, so give it one even when the operator didn't.
	if wantCrashAll && *walDir == "" {
		dir, err := os.MkdirTemp("", "kite-chaos-wal-*")
		if err != nil {
			fatalf("create WAL dir: %v", err)
		}
		defer os.RemoveAll(dir)
		*walDir = dir
		fmt.Fprintf(os.Stderr, "kite-chaos: crash-all requested without -wal-dir; using %s\n", dir)
	}

	tg, cleanup, err := buildTarget(*backend, *nodes, *groups, *walDir)
	if err != nil {
		fatalf("%v", err)
	}
	defer cleanup()

	if *online {
		cfg.OnlineAudit = true
	}
	fmt.Fprintf(os.Stderr, "kite-chaos: seed=%d backend=%s duration=%v\n", *seed, *backend, *duration)
	rep, rec := chaos.Run(tg, cfg)

	if *histPath != "" {
		if err := writeHistory(*histPath, rec); err != nil {
			fatalf("write history: %v", err)
		}
	}
	if !*verify {
		rep.Verifier = nil
	}
	if err := writeReport(*jsonPath, rep); err != nil {
		fatalf("write report: %v", err)
	}

	fmt.Fprintf(os.Stderr, "kite-chaos: ops=%d ok=%d maybe=%d; injected=%v; faulted links=%d\n",
		rep.Ops.Total, rep.Ops.OK, rep.Ops.Maybe, rep.Injected, len(rep.Faults))
	for _, e := range rep.Errors {
		fmt.Fprintf(os.Stderr, "kite-chaos: error: %s\n", e)
	}
	if rep.Verifier != nil {
		fmt.Fprintln(os.Stderr, rep.Verifier.String())
	}
	if rep.Audit != nil {
		st := rep.Audit.Stats
		fmt.Fprintf(os.Stderr, "kite-chaos: online audit: sampled=%d judged=%d reads=%d dropped=%d evicted=%d\n%s\n",
			st.SampledOps, st.JudgedEvents, st.CheckedReads, st.DroppedEvents, st.Evictions, rep.Audit.Report.String())
	}
	if !rep.Passed && *verify {
		fmt.Fprintln(os.Stderr, "kite-chaos: FAILED")
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "kite-chaos: PASSED")
}

// buildTarget boots the requested deployment. The remote backend drives
// testcluster through a non-testing TB whose Fatal panics (recovered into
// exit 2) and whose cleanups run via the returned teardown.
func buildTarget(backend string, nodes, groups int, walDir string) (chaos.Target, func(), error) {
	opts := kite.Options{Nodes: nodes, Workers: 1, SessionsPerWorker: 8, Capacity: 1 << 14, WALDir: walDir}
	switch backend {
	case "inproc":
		c, err := kite.NewCluster(opts)
		if err != nil {
			return nil, nil, err
		}
		return chaos.NewInprocTarget(c), c.Close, nil
	case "sharded":
		c, err := sharded.NewCluster(groups, opts)
		if err != nil {
			return nil, nil, err
		}
		return chaos.NewShardedTarget(c), c.Close, nil
	case "remote":
		tb := &runtimeTB{}
		cl := testcluster.StartWith(tb, testcluster.Options{Nodes: nodes, WALDir: walDir})
		return cl.Chaos(), tb.runCleanups, nil
	default:
		return nil, nil, fmt.Errorf("unknown backend %q (inproc | sharded | remote)", backend)
	}
}

// runtimeTB satisfies testcluster.TB outside `go test`: fatal errors panic
// (turned into exit 2 by deferred recovery in cleanups' caller — boot
// failures surface immediately), cleanups run at teardown in reverse
// order, like testing.T.
type runtimeTB struct {
	cleanups []func()
}

func (t *runtimeTB) Helper() {}
func (t *runtimeTB) Fatal(args ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"kite-chaos: fatal:"}, args...)...)
	os.Exit(2)
}
func (t *runtimeTB) Fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "kite-chaos: fatal: "+format+"\n", args...)
	os.Exit(2)
}
func (t *runtimeTB) Cleanup(fn func()) { t.cleanups = append(t.cleanups, fn) }
func (t *runtimeTB) runCleanups() {
	for i := len(t.cleanups) - 1; i >= 0; i-- {
		t.cleanups[i]()
	}
}

func writeHistory(path string, rec *history.Recorded) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeReport(path string, rep *chaos.Report) error {
	if path == "" {
		return nil
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

func kindList() string {
	names := make([]string, 0, len(chaos.AllKinds()))
	for _, k := range chaos.AllKinds() {
		names = append(names, string(k))
	}
	return strings.Join(names, ",")
}

func validKind(k chaos.NemesisKind) bool {
	if k == chaos.KindCrashAll {
		// Not in AllKinds (a memory-only sweep cannot survive it), but a
		// legitimate explicit request.
		return true
	}
	for _, have := range chaos.AllKinds() {
		if k == have {
			return true
		}
	}
	return false
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "kite-chaos: "+format+"\n", args...)
	os.Exit(2)
}
