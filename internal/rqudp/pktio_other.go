//go:build !(linux && (amd64 || arm64))

package rqudp

import (
	"errors"
	"net"
	"net/netip"
)

// mmsgReader is the batched socket reader; this platform has none, so
// every pktIO reads through ReadFrom.
type mmsgReader struct{}

func newMmsgReader(*net.UDPConn) *mmsgReader { return nil }

// newTrainSender returns nil: this platform sends a train one datagram
// at a time.
func newTrainSender(*net.UDPConn) func([]byte, int, netip.AddrPort) error { return nil }

// A pktIO calls none of these: its mmsgReader is nil.

func (*mmsgReader) bind([]byte, int, int) {}

func (*mmsgReader) setGRO(int) error { return errors.ErrUnsupported }

func (*mmsgReader) recv([]datagram) (int, error) {
	panic("rqudp: no batched reader on this platform")
}
