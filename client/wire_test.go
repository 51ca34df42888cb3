package client

import (
	"bytes"
	"net"
	"testing"
	"time"

	"kite"
	"kite/internal/proto"
)

// TestLoneFrameDatagram pins the wire format: an op submitted on an idle
// client leaves as a datagram holding exactly its request frame, byte for
// byte the encoding a one-frame-per-datagram client sent.
func TestLoneFrameDatagram(t *testing.T) {
	srv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const sess = 7
	data := make(chan []byte, 1)
	go func() { // a fake server: answers ping and open, captures the rest
		buf := make([]byte, 2048)
		for {
			n, from, err := srv.ReadFromUDP(buf)
			if err != nil {
				return
			}
			var req proto.ClientRequest
			if req.Unmarshal(buf[:n]) != nil {
				continue
			}
			if proto.ClientDataOp(req.Op) {
				select {
				case data <- bytes.Clone(buf[:n]):
				default:
				}
				continue
			}
			rep := proto.ClientReply{Flags: proto.ClientFlagControl, Sess: sess, Seq: req.Seq}
			b, _ := rep.AppendMarshal(nil)
			srv.WriteToUDP(b, from)
		}
	}()
	c, err := Dial(srv.LocalAddr().String(), Options{DialTimeout: 2 * time.Second, RetryInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	s.DoAsync(kite.WriteOp(5, []byte("v")), nil)
	want, _ := (&proto.ClientRequest{
		Op: proto.ClientOpWrite, Sess: sess, Seq: 1, Acked: 1, Key: 5, Value: []byte("v"),
	}).AppendMarshal(nil)
	select {
	case got := <-data:
		if !bytes.Equal(got, want) {
			t.Fatalf("lone datagram\n got %x\nwant %x", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no datagram reached the server")
	}
}
