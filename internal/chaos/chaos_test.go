package chaos

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"kite"
	"kite/sharded"
)

// TestGenerateDeterministic pins the reproducibility contract: a schedule
// is a pure function of its Config, and the seed genuinely matters.
func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, Duration: 30 * time.Second, Nodes: 3}
	a, b := Generate(cfg), Generate(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config, different schedules:\n%+v\n%+v", a, b)
	}
	cfg.Seed = 43
	if c := Generate(cfg); reflect.DeepEqual(a.Actions, c.Actions) {
		t.Fatal("different seeds produced identical timelines")
	}
}

// TestGenerateGuarantees checks the structural invariants the runner and
// the workload rely on, across many seeds.
func TestGenerateGuarantees(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		cfg := Config{Seed: seed, Duration: 30 * time.Second, Nodes: 3, MaxConcurrent: 2}
		s := Generate(cfg)
		counts := map[NemesisKind]int{}
		for _, a := range s.Actions {
			counts[a.Kind]++
			if a.Heal > cfg.Duration || a.At >= a.Heal {
				t.Fatalf("seed %d: unhealed or inverted action %+v", seed, a)
			}
			if !a.Kind.lifecycle() && a.Kind != KindIsolateNode && (int(a.From) >= cfg.Nodes || int(a.To) >= cfg.Nodes || a.From == a.To) {
				t.Fatalf("seed %d: link fault outside boot membership: %+v", seed, a)
			}
		}
		for _, k := range AllKinds() {
			if k == KindAddRemove && counts[k] == 0 && counts[KindStopRestart] > 1 {
				continue // capacity fallback; not possible at Nodes=3 but allowed
			}
			if counts[k] == 0 {
				t.Fatalf("seed %d: kind %s never scheduled in %v", seed, k, s.Actions)
			}
		}
		for i, a := range s.Actions {
			if !a.Kind.lifecycle() {
				continue
			}
			for j, b := range s.Actions {
				if i != j && b.At < a.Heal && b.Heal > a.At {
					t.Fatalf("seed %d: lifecycle action %+v overlaps %+v", seed, a, b)
				}
			}
		}
		// Link-fault lane: at no instant more than MaxConcurrent active
		// faults (sweep over the start points), isolation always alone.
		link := func(k NemesisKind) bool {
			return k == KindDropLink || k == KindDelayLink || k == KindCutLink
		}
		for i, a := range s.Actions {
			if !link(a.Kind) && a.Kind != KindIsolateNode {
				continue
			}
			depth := 1
			for j, b := range s.Actions {
				if i == j || (!link(b.Kind) && b.Kind != KindIsolateNode) {
					continue
				}
				if b.At <= a.At && b.Heal > a.At { // active when a starts
					if a.Kind == KindIsolateNode || b.Kind == KindIsolateNode {
						t.Fatalf("seed %d: isolation overlaps another link fault: %+v / %+v", seed, a, b)
					}
					depth++
				}
			}
			if depth > cfg.MaxConcurrent {
				t.Fatalf("seed %d: %d concurrent link faults at %v (%+v)", seed, depth, a.At, a)
			}
		}
	}
}

func chaosConfig(t *testing.T) Config {
	d := 8 * time.Second
	if testing.Short() {
		d = 5 * time.Second
	}
	return Config{Seed: 1, Duration: d}
}

// TestChaosInproc: a full seeded run — every nemesis kind injected against
// the in-process cluster, history verified, evidence ledger non-trivial.
func TestChaosInproc(t *testing.T) {
	c, err := kite.NewCluster(kite.Options{Nodes: 3, Workers: 1, SessionsPerWorker: 4, Capacity: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep, rec := Run(NewInprocTarget(c), chaosConfig(t))
	if !rep.Passed {
		t.Fatalf("chaos run failed: errors=%v verifier:\n%s", rep.Errors, rep.Verifier.String())
	}
	if rec == nil || len(rec.Events) == 0 || rep.Ops.OK == 0 {
		t.Fatalf("no history recorded: %+v", rep.Ops)
	}
	for _, k := range AllKinds() {
		if rep.Injected[k] == 0 {
			t.Fatalf("kind %s never injected; injected=%v", k, rep.Injected)
		}
	}
}

// TestChaosLocalReadsInproc runs the local-reads schedule — the nemesis mix
// biased at the local-acquire fast path's invalidate→validate window — over
// three seeds against the in-process cluster. The scan workers' acquires
// mix local hits with quorum fallbacks while validates are delayed, peers
// isolated and replicas restarted; the verifier judges the history.
func TestChaosLocalReadsInproc(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c, err := kite.NewCluster(kite.Options{Nodes: 3, Workers: 1, SessionsPerWorker: 4, Capacity: 1 << 12})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			cfg := chaosConfig(t)
			cfg.Seed = seed
			cfg.Kinds = LocalReadsKinds()
			rep, _ := Run(NewInprocTarget(c), cfg)
			if !rep.Passed {
				t.Fatalf("local-reads chaos run failed: errors=%v verifier:\n%s", rep.Errors, rep.Verifier.String())
			}
			for _, k := range LocalReadsKinds() {
				if rep.Injected[k] == 0 {
					t.Fatalf("kind %s never injected; injected=%v", k, rep.Injected)
				}
			}
			// The schedule must have actually exercised the fast path: some
			// acquires served locally, some forced onto the quorum read.
			var hits, falls uint64
			for n := 0; n < c.Nodes(); n++ {
				st := c.NodeStats(n)
				hits += st.LocalAcqHits
				falls += st.AcqFallbacks
			}
			if hits == 0 || falls == 0 {
				t.Fatalf("fast path not exercised under chaos: hits=%d fallbacks=%d", hits, falls)
			}
		})
	}
}

// TestChaosWireBatchingInproc runs the wire-batching schedule — the nemesis
// mix biased at the batched transport's staged-not-yet-posted window, plus
// burst sessions whose high-fanout relaxed-write batches keep the send
// rings busy — over two seeds against the in-process cluster. The burst keys are
// disjoint from every verified range and the burst sessions are unrecorded,
// so the verifier judges the recorded workers exactly as in the default run;
// the burst-op counter proves the load generator actually ran.
func TestChaosWireBatchingInproc(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c, err := kite.NewCluster(kite.Options{Nodes: 3, Workers: 1, SessionsPerWorker: 8, Capacity: 1 << 12})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			cfg := chaosConfig(t)
			cfg.Seed = seed
			cfg.Kinds = WireBatchingKinds()
			cfg.BurstSessions = 3
			rep, _ := Run(NewInprocTarget(c), cfg)
			if !rep.Passed {
				t.Fatalf("wire-batching chaos run failed: errors=%v verifier:\n%s", rep.Errors, rep.Verifier.String())
			}
			for _, k := range WireBatchingKinds() {
				if rep.Injected[k] == 0 {
					t.Fatalf("kind %s never injected; injected=%v", k, rep.Injected)
				}
			}
			if rep.BurstOps == 0 {
				t.Fatal("burst sessions requested but no burst writes completed")
			}
		})
	}
}

// TestChaosLocalReadsSharded: one local-reads seed against the sharded
// composition (the remote leg lives in internal/testcluster).
func TestChaosLocalReadsSharded(t *testing.T) {
	c, err := sharded.NewCluster(2, kite.Options{Nodes: 3, Workers: 1, SessionsPerWorker: 4, Capacity: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cfg := chaosConfig(t)
	cfg.Kinds = LocalReadsKinds()
	rep, _ := Run(NewShardedTarget(c), cfg)
	if !rep.Passed {
		t.Fatalf("sharded local-reads chaos run failed: errors=%v verifier:\n%s", rep.Errors, rep.Verifier.String())
	}
}

// TestChaosSharded: the same run shape against the sharded deployment —
// nemeses hit the same machine slot in every group through the FaultSet.
func TestChaosSharded(t *testing.T) {
	c, err := sharded.NewCluster(2, kite.Options{Nodes: 3, Workers: 1, SessionsPerWorker: 4, Capacity: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep, _ := Run(NewShardedTarget(c), chaosConfig(t))
	if !rep.Passed {
		t.Fatalf("sharded chaos run failed: errors=%v verifier:\n%s", rep.Errors, rep.Verifier.String())
	}
	if len(rep.Faults) == 0 {
		t.Fatal("no per-link fault evidence recorded")
	}
}
