package transport

import (
	"net"
	"net/netip"
	"sync/atomic"
)

// Batched datagram I/O: BatchConn wraps a *net.UDPConn with vectored
// WriteBatch/ReadBatch operations. On Linux these are single
// sendmmsg/recvmmsg syscalls moving up to MaxIOBatch datagrams each — the
// software analogue of the paper's doorbell-batched RDMA posts (§6.2:
// "batching messages of all protocols into the same packets" amortises the
// per-message hardware cost; here it amortises the per-datagram syscall
// cost). Everywhere else — and whenever the batch syscalls fail with
// something other than a transient error — the same calls degrade to one
// classic syscall per datagram, so the transport's behaviour is identical
// on every platform and only its syscall count differs.
//
// Destination addresses travel as *UDPDest, which precomputes the raw
// sockaddr bytes once per peer: the per-send conversion net.UDPConn.WriteTo
// performs (and allocates for) on every call happens once per address here.

// MaxIOBatch bounds the datagrams moved by one WriteBatch/ReadBatch call.
// 32 keeps the mmsghdr/iovec arrays comfortably cache-resident while
// amortising the syscall ~30x under load.
const MaxIOBatch = 32

// UDPDest is a resolved datagram destination: the net address plus its
// precomputed raw sockaddr encoding for the batch syscalls. A nil UDPDest
// (or one with a nil UDP address) means "the connected peer" — valid only
// on connected sockets.
type UDPDest struct {
	UDP *net.UDPAddr
	raw rawSockaddr
}

// NewUDPDest precomputes the raw sockaddr for a. Returns nil for nil a.
func NewUDPDest(a *net.UDPAddr) *UDPDest {
	if a == nil {
		return nil
	}
	d := &UDPDest{UDP: a}
	d.raw = marshalSockaddr(a)
	return d
}

// SameDest reports whether a and b address the same endpoint, without
// allocating: it compares the precomputed raw sockaddrs where the platform
// has them and the UDP addresses elsewhere. A nil destination (the
// connected peer) matches only nil.
func SameDest(a, b *UDPDest) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a.raw.valid() && b.raw.valid() {
		return a.raw == b.raw
	}
	if a.UDP == nil || b.UDP == nil {
		return a.UDP == b.UDP
	}
	return a.UDP.Port == b.UDP.Port && a.UDP.Zone == b.UDP.Zone && a.UDP.IP.Equal(b.UDP.IP)
}

// Datagram is one packet staged for WriteBatch: a payload plus its
// destination (nil Dest on connected sockets).
type Datagram struct {
	Buf  []byte
	Dest *UDPDest
}

// BatchConn is a UDP socket with batched I/O. Safe for one concurrent
// writer and one concurrent reader (the transport's flusher and receive
// loops); concurrent writers must serialise externally.
type BatchConn struct {
	conn    *net.UDPConn
	sys     *mmsgState   // platform state; nil when the platform has no batch path
	batched atomic.Bool  // mmsg path active (false: per-datagram fallback)
	limit   atomic.Int32 // test hook: max datagrams per batch syscall (0: MaxIOBatch)
	stats   *Stats       // optional syscall counters
}

// NewBatchConn wraps conn. The batch path is probed lazily on first use and
// degrades permanently to the per-datagram fallback if the platform refuses
// it. A nil stats is allowed (counters are then dropped).
func NewBatchConn(conn *net.UDPConn, stats *Stats) *BatchConn {
	bc := &BatchConn{conn: conn, stats: stats}
	bc.sys = newMmsgState(conn)
	bc.batched.Store(bc.sys != nil)
	return bc
}

// Batched reports whether the batched-syscall path is active.
func (bc *BatchConn) Batched() bool { return bc.batched.Load() }

// DisableBatch forces the per-datagram fallback (tests, and the UDPConfig
// escape hatch for platforms where the probe misbehaves).
func (bc *BatchConn) DisableBatch() { bc.batched.Store(false) }

// setLimit caps datagrams per batch syscall — the test hook that forces
// partial-batch short writes without needing a saturated socket.
func (bc *BatchConn) setLimit(n int) { bc.limit.Store(int32(n)) }

func (bc *BatchConn) maxPerCall() int {
	if n := int(bc.limit.Load()); n > 0 && n < MaxIOBatch {
		return n
	}
	return MaxIOBatch
}

func (bc *BatchConn) countBatched(datagrams int) {
	if bc.stats != nil {
		bc.stats.BatchedSyscalls.Add(1)
		bc.stats.BatchedDatagrams.Add(uint64(datagrams))
	}
}

func (bc *BatchConn) countFallback() {
	if bc.stats != nil {
		bc.stats.FallbackSyscalls.Add(1)
	}
}

// WriteBatch sends every datagram in dgs, looping over partial-batch short
// writes (sendmmsg may send fewer than asked — the remainder is retried
// from where it stopped, never dropped or reordered). Returns the datagrams
// sent and the first hard error; a batch-path failure that looks like a
// platform refusal (ENOSYS and friends) demotes the connection to the
// fallback and retries there rather than failing the caller.
func (bc *BatchConn) WriteBatch(dgs []Datagram) (int, error) {
	sent := 0
	for sent < len(dgs) {
		chunk := dgs[sent:]
		if max := bc.maxPerCall(); len(chunk) > max {
			chunk = chunk[:max]
		}
		if bc.batched.Load() {
			n, err := bc.sys.writeBatch(bc.conn, chunk)
			if err != nil {
				if demoteErr(err) {
					bc.batched.Store(false)
					continue // retry this chunk on the fallback path
				}
				return sent, err
			}
			bc.countBatched(n)
			sent += n
			continue
		}
		// Fallback: one classic syscall per datagram.
		for _, d := range chunk {
			var err error
			if d.Dest == nil || d.Dest.UDP == nil {
				_, err = bc.conn.Write(d.Buf)
			} else {
				_, err = bc.conn.WriteToUDP(d.Buf, d.Dest.UDP)
			}
			if err != nil {
				return sent, err
			}
			bc.countFallback()
			sent++
		}
	}
	return sent, nil
}

// ReadBatch fills bufs with received datagrams, blocking until at least one
// arrives, and returns how many were filled; sizes[i] reports datagram i's
// length. On the batch path one recvmmsg drains up to len(bufs) queued
// datagrams; the fallback reads exactly one. Like the write side, a
// platform refusal demotes to the fallback instead of erroring.
func (bc *BatchConn) ReadBatch(bufs [][]byte, sizes []int) (int, error) {
	return bc.ReadBatchFrom(bufs, sizes, nil)
}

// ReadBatchFrom is ReadBatch that also reports each datagram's source
// address in from[i] — what an unconnected server socket needs to answer.
// from may be nil when the sources are not wanted.
func (bc *BatchConn) ReadBatchFrom(bufs [][]byte, sizes []int, from []netip.AddrPort) (int, error) {
	if max := bc.maxPerCall(); len(bufs) > max {
		bufs = bufs[:max]
	}
	for {
		if bc.batched.Load() {
			n, err := bc.sys.readBatch(bc.conn, bufs, sizes, from)
			if err != nil {
				if demoteErr(err) {
					bc.batched.Store(false)
					continue
				}
				return 0, err
			}
			bc.countBatched(n)
			return n, nil
		}
		n, src, err := bc.conn.ReadFromUDPAddrPort(bufs[0])
		if err != nil {
			return 0, err
		}
		bc.countFallback()
		sizes[0] = n
		if from != nil {
			from[0] = src
		}
		return 1, nil
	}
}
