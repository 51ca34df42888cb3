//go:build linux && (amd64 || arm64)

package transport

import (
	"encoding/binary"
	"net"
	"net/netip"
	"strconv"
	"syscall"
	"unsafe"
)

// sendmmsg/recvmmsg via the stdlib syscall package. The runtime's network
// poller still owns the socket: both calls run inside RawConn.Read/Write
// callbacks, returning false on EAGAIN so the poller parks the goroutine
// until the fd is ready — batching composes with Go's scheduler instead of
// fighting it. amd64 and arm64 only: the mmsghdr layout below assumes the
// 64-bit little-endian ABI those share; other Linux ports take the
// per-datagram fallback.

// rawSockaddr is a preformatted kernel sockaddr (sockaddr_in or
// sockaddr_in6), built once per peer by marshalSockaddr.
type rawSockaddr struct {
	data [syscall.SizeofSockaddrInet6]byte
	len  uint32
}

// marshalSockaddr encodes a once per peer; the zero value (len 0) means
// "no explicit destination" and leaves msg_name unset.
func marshalSockaddr(a *net.UDPAddr) rawSockaddr {
	var r rawSockaddr
	if a == nil {
		return r
	}
	port := uint16(a.Port)
	if ip4 := a.IP.To4(); ip4 != nil {
		// sockaddr_in: family(2, host) port(2, net) addr(4) zero(8)
		r.data[0] = byte(syscall.AF_INET)
		r.data[2] = byte(port >> 8)
		r.data[3] = byte(port)
		copy(r.data[4:8], ip4)
		r.len = syscall.SizeofSockaddrInet4
		return r
	}
	if ip6 := a.IP.To16(); ip6 != nil {
		// sockaddr_in6: family(2, host) port(2, net) flowinfo(4) addr(16) scope(4)
		r.data[0] = byte(syscall.AF_INET6)
		r.data[2] = byte(port >> 8)
		r.data[3] = byte(port)
		copy(r.data[8:24], ip6)
		r.len = syscall.SizeofSockaddrInet6
		return r
	}
	return r
}

// valid reports whether r holds an encoded address (len 0 means none).
func (r *rawSockaddr) valid() bool { return r.len > 0 }

// parseSockaddr decodes a kernel-filled source sockaddr (the inverse of
// marshalSockaddr); an unknown family yields the zero AddrPort. A non-zero
// IPv6 scope id becomes a numeric zone, which the net package resolves like
// an interface name.
func parseSockaddr(b []byte) netip.AddrPort {
	port := uint16(b[2])<<8 | uint16(b[3])
	switch binary.LittleEndian.Uint16(b) {
	case syscall.AF_INET:
		return netip.AddrPortFrom(netip.AddrFrom4([4]byte(b[4:8])), port)
	case syscall.AF_INET6:
		addr := netip.AddrFrom16([16]byte(b[8:24]))
		if scope := binary.LittleEndian.Uint32(b[24:28]); scope != 0 {
			addr = addr.WithZone(strconv.FormatUint(uint64(scope), 10))
		}
		return netip.AddrPortFrom(addr, port)
	}
	return netip.AddrPort{}
}

// mmsghdr mirrors struct mmsghdr on 64-bit Linux: a msghdr plus the
// kernel-filled datagram length, padded to 8-byte alignment.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// mmsgState holds the preallocated mmsghdr/iovec arrays for one socket —
// write and read sides are separate so one flusher and one receive loop can
// run concurrently. The RawConn callbacks are built once here rather than
// per call: a closure passed to RawConn.Write escapes, and a heap
// allocation per syscall would defeat the wire path's allocation budget.
type mmsgState struct {
	rc     syscall.RawConn
	whdrs  [MaxIOBatch]mmsghdr
	wiovs  [MaxIOBatch]syscall.Iovec
	rhdrs  [MaxIOBatch]mmsghdr
	riovs  [MaxIOBatch]syscall.Iovec
	rnames [MaxIOBatch][syscall.SizeofSockaddrInet6]byte

	// Write-side call state, owned by the single flusher goroutine.
	wn    int
	wsent int
	werr  error
	wfn   func(fd uintptr) bool
	// Read-side call state, owned by the single receive goroutine.
	rn   int
	rgot int
	rerr error
	rfn  func(fd uintptr) bool
}

func newMmsgState(conn *net.UDPConn) *mmsgState {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil
	}
	s := &mmsgState{rc: rc}
	s.wfn = func(fd uintptr) bool {
		r, _, e := syscall.Syscall6(sysSendmmsg,
			fd, uintptr(unsafe.Pointer(&s.whdrs[0])), uintptr(s.wn), 0, 0, 0)
		if e == syscall.EAGAIN {
			return false // poller waits for writability
		}
		if e != 0 {
			s.werr = e
		} else {
			s.wsent = int(r)
		}
		return true
	}
	s.rfn = func(fd uintptr) bool {
		r, _, e := syscall.Syscall6(sysRecvmmsg,
			fd, uintptr(unsafe.Pointer(&s.rhdrs[0])), uintptr(s.rn), 0, 0, 0)
		if e == syscall.EAGAIN {
			return false // poller waits for readability
		}
		if e != 0 {
			s.rerr = e
		} else {
			s.rgot = int(r)
		}
		return true
	}
	return s
}

// demoteErr reports errors that mean "this platform/sandbox refuses the
// batch syscalls" — the connection falls back to per-datagram I/O rather
// than surfacing them. Seccomp policies commonly deny with EPERM.
func demoteErr(err error) bool {
	switch err {
	case syscall.ENOSYS, syscall.EOPNOTSUPP, syscall.EPERM:
		return true
	}
	return false
}

// writeBatch issues one sendmmsg for dgs, returning how many datagrams the
// kernel accepted (possibly fewer than asked — the caller retries the rest).
func (s *mmsgState) writeBatch(_ *net.UDPConn, dgs []Datagram) (int, error) {
	n := len(dgs)
	for i := 0; i < n; i++ {
		d := &dgs[i]
		iov := &s.wiovs[i]
		if len(d.Buf) > 0 {
			iov.Base = &d.Buf[0]
		} else {
			iov.Base = nil
		}
		iov.SetLen(len(d.Buf))
		h := &s.whdrs[i]
		h.hdr.Iov = iov
		h.hdr.Iovlen = 1
		if d.Dest != nil && d.Dest.raw.len > 0 {
			h.hdr.Name = &d.Dest.raw.data[0]
			h.hdr.Namelen = d.Dest.raw.len
		} else {
			h.hdr.Name = nil
			h.hdr.Namelen = 0
		}
		h.len = 0
	}
	s.wn, s.wsent, s.werr = n, 0, nil
	if err := s.rc.Write(s.wfn); err != nil {
		return 0, err
	}
	if s.werr != nil {
		return 0, s.werr
	}
	return s.wsent, nil
}

// readBatch issues one recvmmsg into bufs, blocking (via the poller) until
// at least one datagram arrives; sizes[i] receives datagram i's length and,
// when from is non-nil, from[i] its source address.
func (s *mmsgState) readBatch(_ *net.UDPConn, bufs [][]byte, sizes []int, from []netip.AddrPort) (int, error) {
	n := len(bufs)
	for i := 0; i < n; i++ {
		iov := &s.riovs[i]
		iov.Base = &bufs[i][0]
		iov.SetLen(len(bufs[i]))
		h := &s.rhdrs[i]
		h.hdr.Iov = iov
		h.hdr.Iovlen = 1
		h.hdr.Name = &s.rnames[i][0]
		h.hdr.Namelen = uint32(len(s.rnames[i]))
		h.len = 0
	}
	s.rn, s.rgot, s.rerr = n, 0, nil
	if err := s.rc.Read(s.rfn); err != nil {
		return 0, err
	}
	if s.rerr != nil {
		return 0, s.rerr
	}
	for i := 0; i < s.rgot; i++ {
		sizes[i] = int(s.rhdrs[i].len)
		if from != nil {
			from[i] = parseSockaddr(s.rnames[i][:])
		}
	}
	return s.rgot, nil
}
