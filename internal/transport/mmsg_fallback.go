//go:build !linux || (!amd64 && !arm64)

package transport

import (
	"errors"
	"net"
	"net/netip"
)

// Platforms without the mmsg fast path: newMmsgState reports "no batch
// support" and BatchConn runs every call on the per-datagram fallback.

type rawSockaddr struct{}

func marshalSockaddr(*net.UDPAddr) rawSockaddr { return rawSockaddr{} }

// valid is always false here: SameDest compares the UDP addresses instead.
func (rawSockaddr) valid() bool { return false }

type mmsgState struct{}

func newMmsgState(*net.UDPConn) *mmsgState { return nil }

var errNoBatchIO = errors.New("transport: batch syscalls unavailable on this platform")

func (*mmsgState) writeBatch(*net.UDPConn, []Datagram) (int, error) { return 0, errNoBatchIO }

func (*mmsgState) readBatch(*net.UDPConn, [][]byte, []int, []netip.AddrPort) (int, error) {
	return 0, errNoBatchIO
}

func demoteErr(error) bool { return false }
