package main

import (
	"fmt"
	"net"
	"reflect"
	"time"

	"kite"
	"kite/client"
	"kite/internal/core"
	"kite/internal/server"
	"kite/internal/shard"
	"kite/internal/transport"
	"kite/sharded"
)

// sessionsPerWorker leaves room beside the driven sessions for the probe
// and check sessions (indexes probeSess and checkSess).
const (
	sessionsPerWorker = 12
	probeSess         = 10
	checkSess         = 11
)

// deployment is one booted workload deployment plus the handles the
// benchmark needs from it.
type deployment struct {
	// driven are the load sessions.
	driven []kite.Session
	// nodes are the replicas that carry driven sessions.
	nodes []int
	// prefill holds one session per replica used to prefill the keys
	// before the driven sessions start.
	prefill []kite.Session
	// flushProbe is a plain (unsharded, unaudited) session whose periodic
	// write+flush measures the all-replica ES ack round; rttProbe, on
	// remote only, measures a window-1 relaxed read round trip.
	flushProbe kite.Session
	rttProbe   kite.Session
	// check reads the FAA counters after the timed window.
	check kite.Session
	// isolate cuts (true) or heals (false) every link of replica 2
	// (in-process deployments only).
	isolate func(bool)
	// counters snapshots every counter the layers export.
	counters func() counters
	close    func()
}

// submitLayer names the backend whose DoAsync the driven sessions call.
func (w *workload) submitLayer() string {
	switch w.deploy {
	case kindSharded:
		return "shard"
	case kindRemote:
		return "client"
	}
	return "kite"
}

func deploy(w *workload, generators int, tr *tracer) (*deployment, error) {
	switch w.deploy {
	case kindSharded:
		return deploySharded(w, tr)
	case kindRemote:
		return deployRemote(w, generators)
	}
	return deployInproc(w)
}

func inprocOptions() kite.Options {
	return kite.Options{
		Nodes: numNodes, Workers: 1, SessionsPerWorker: sessionsPerWorker,
		Capacity: totalKeys,
	}
}

// sessionCoords places driven session i on a replica and a session slot.
func sessionCoords(nodes []int, i int) (node, idx int) {
	return nodes[i%len(nodes)], i / len(nodes)
}

func deployInproc(w *workload) (*deployment, error) {
	kc, err := kite.NewCluster(inprocOptions())
	if err != nil {
		return nil, err
	}
	d := &deployment{nodes: w.sessionNodes}
	for i := 0; i < numSessions; i++ {
		n, idx := sessionCoords(d.nodes, i)
		d.driven = append(d.driven, kc.Session(n, idx))
	}
	for n := 0; n < numNodes; n++ {
		d.prefill = append(d.prefill, kc.Session(n, 0))
	}
	d.flushProbe = kc.Session(0, probeSess)
	d.check = kc.Session(1, checkSess)
	d.isolate = func(on bool) { kc.Faults().IsolateNode(2, on) }
	inproc := inprocStats(kc)
	d.counters = func() counters {
		var c counters
		for n := 0; n < numNodes; n++ {
			c.node = append(c.node, kc.NodeStats(n))
			c.completed = append(c.completed, kc.CompletedOps(n))
		}
		c.faultDrops = kc.Faults().Stats().DroppedFault.Load()
		if inproc != nil {
			c.hasTransport = true
			c.tr.add(inproc)
		}
		return c
	}
	d.close = kc.Close
	return d, nil
}

func deploySharded(w *workload, tr *tracer) (*deployment, error) {
	sc, err := sharded.NewCluster(w.groups, inprocOptions())
	if err != nil {
		return nil, err
	}
	d := &deployment{nodes: w.sessionNodes}
	m := shard.NewMap(w.groups)
	var shardSessions []kite.Session
	for i := 0; i < numSessions; i++ {
		n, idx := sessionCoords(d.nodes, i)
		var s kite.Session
		if tr == nil {
			s = sc.Session(n, idx)
		} else {
			// The same composition sharded.Cluster.Session builds, with
			// each group's sub-session wrapped so the shard layer's fence
			// flushes become child spans of the op that caused them.
			subs := make([]kite.Session, w.groups)
			for g := range subs {
				subs[g] = tr.wrapSub(i, sc.Group(g).Session(n, idx))
			}
			s = shard.New(subs, m)
		}
		shardSessions = append(shardSessions, s)
		d.driven = append(d.driven, s)
	}
	for n := 0; n < numNodes; n++ {
		d.prefill = append(d.prefill, sc.Session(n, 0))
	}
	d.flushProbe = sc.Group(0).Session(0, probeSess)
	d.check = sc.Session(1, checkSess)
	shardSessions = append(shardSessions, d.prefill...)
	shardSessions = append(shardSessions, d.check)
	var inproc []*transport.Stats
	for g := 0; g < w.groups; g++ {
		if st := inprocStats(sc.Group(g)); st != nil {
			inproc = append(inproc, st)
		}
	}
	d.counters = func() counters {
		var c counters
		for n := 0; n < numNodes; n++ {
			c.node = append(c.node, sc.NodeStats(n))
			c.completed = append(c.completed, sc.CompletedOps(n))
		}
		for g := 0; g < w.groups; g++ {
			c.faultDrops += sc.Group(g).Faults().Stats().DroppedFault.Load()
		}
		c.hasTransport = len(inproc) == w.groups
		for _, st := range inproc {
			c.tr.add(st)
		}
		return c
	}
	d.close = func() {
		// Stopping the groups fails anything still in flight, so the
		// shard pumps blocked on it can then drain their close.
		sc.Close()
		for _, s := range shardSessions {
			s.Close()
		}
	}
	return d, nil
}

// inprocStats returns the counters of the in-process transport inside a
// kite.Cluster. The cluster exports only its fault injector, whose Stats
// count injected faults but not traffic, so the benchmark reads the
// transport behind it by reflection. It returns nil (and the traffic
// metrics read 0) if the cluster's layout changes.
func inprocStats(kc *kite.Cluster) *transport.Stats {
	v := reflect.ValueOf(kc).Elem().FieldByName("c")
	if !v.IsValid() || v.Kind() != reflect.Pointer || v.IsNil() {
		return nil
	}
	v = v.Elem().FieldByName("inner")
	if !v.IsValid() || v.Type() != reflect.TypeOf((*transport.InProc)(nil)) || v.IsNil() {
		return nil
	}
	return (*transport.InProc)(v.UnsafePointer()).Stats()
}

// remoteNode is one replica of the loopback-UDP deployment.
type remoteNode struct {
	udp *transport.UDP
	fi  *transport.FaultInjector
	nd  *core.Node
	srv *server.Server
}

// deployRemote boots three core nodes over loopback UDP, each fronted by
// a session server, the way internal/testcluster does, and dials one
// client per generator goroutine (client g to the server of
// w.sessionNodes[g]).
func deployRemote(w *workload, generators int) (*deployment, error) {
	ports, err := reservePorts(numNodes)
	if err != nil {
		return nil, err
	}
	addr := func(id int) string { return fmt.Sprintf("127.0.0.1:%d", ports[id]) }
	cfg := core.Config{
		Nodes: numNodes, Workers: 1, SessionsPerWorker: sessionsPerWorker,
		KVSCapacity: totalKeys,
		// Loopback UDP round trips are far above in-process latencies;
		// these are testcluster's timeouts, which keep healthy runs on
		// the fast path.
		ReleaseTimeout: 50 * time.Millisecond,
		RetryInterval:  25 * time.Millisecond,
	}
	var rn []*remoteNode
	var clients []*client.Client
	d := &deployment{}
	d.close = func() {
		for _, c := range clients {
			c.Close()
		}
		for _, r := range rn {
			r.srv.Close()
			r.nd.Stop()
			r.fi.Close()
		}
	}
	fail := func(err error) (*deployment, error) {
		d.close()
		return nil, err
	}
	for id := 0; id < numNodes; id++ {
		peers := map[uint8][]string{}
		for p := 0; p < numNodes; p++ {
			if p != id {
				peers[uint8(p)] = []string{addr(p)}
			}
		}
		udp, err := transport.NewUDP(transport.UDPConfig{
			LocalNode: uint8(id), Workers: 1, Listen: []string{addr(id)}, Peers: peers,
		})
		if err != nil {
			return fail(err)
		}
		fi := transport.NewFaultInjector(udp, int64(id)+1)
		nd, err := core.NewNode(uint8(id), cfg, fi)
		if err != nil {
			fi.Close()
			return fail(err)
		}
		nd.Start()
		srv, err := server.New(nd, server.Config{Addr: "127.0.0.1:0"})
		if err != nil {
			nd.Stop()
			fi.Close()
			return fail(err)
		}
		rn = append(rn, &remoteNode{udp: udp, fi: fi, nd: nd, srv: srv})
	}
	// At most one connection per generator goroutine.
	d.nodes = w.sessionNodes
	if len(d.nodes) > generators {
		d.nodes = d.nodes[:generators]
	}
	for _, n := range d.nodes {
		c, err := client.Dial(rn[n].srv.Addr(), client.Options{
			DialTimeout: 2 * time.Second, OpTimeout: 15 * time.Second,
			RetryInterval: 25 * time.Millisecond,
		})
		if err != nil {
			return fail(err)
		}
		clients = append(clients, c)
	}
	for i := 0; i < numSessions; i++ {
		s, err := clients[i%len(clients)].NewSession()
		if err != nil {
			return fail(err)
		}
		d.driven = append(d.driven, s)
	}
	// Prefill over the driven sessions' own connections; their session
	// order simply starts with the prefill writes.
	d.prefill = d.driven[:len(clients)]
	for _, l := range []struct {
		s  *kite.Session
		ci int
	}{{&d.flushProbe, 0}, {&d.rttProbe, len(clients) - 1}, {&d.check, 0}} {
		s, err := clients[l.ci].NewSession()
		if err != nil {
			return fail(err)
		}
		*l.s = s
	}
	d.counters = func() counters {
		c := counters{hasTransport: true, hasServer: true}
		for _, r := range rn {
			c.node = append(c.node, r.nd.SlowPathStats())
			c.completed = append(c.completed, r.nd.CompletedTotal())
			c.tr.add(r.udp.Stats())
			c.faultDrops += r.fi.Stats().DroppedFault.Load()
			c.srv.add(r.srv.Stats())
		}
		return c
	}
	return d, nil
}

// reservePorts grabs n free loopback UDP ports. The sockets close before
// the nodes bind them, exactly as in internal/testcluster.
func reservePorts(n int) ([]int, error) {
	ports := make([]int, n)
	conns := make([]*net.UDPConn, 0, n)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := range ports {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, err
		}
		conns = append(conns, c)
		ports[i] = c.LocalAddr().(*net.UDPAddr).Port
	}
	return ports, nil
}
