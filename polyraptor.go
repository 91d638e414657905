// Package polyraptor is the public API of the Polyraptor
// reproduction: a RaptorQ-coded, receiver-driven data transport for
// one-to-many and many-to-one transfer patterns (Alasmar, Parisis,
// Crowcroft — SIGCOMM 2018).
//
// Two layers are exposed:
//
//   - The systematic rateless codec (EncodeObject / NewObjectDecoder):
//     a RaptorQ-architecture code — LDPC+HDPC precode, LT encoding
//     with permanently-inactive symbols, inactivation decoding — that
//     is not RFC 6330 wire-compatible; the deviation paragraph of
//     internal/raptorq/params.go is its conformance statement.
//   - The real UDP transport (NewServer / Fetch / FetchMultiSource):
//     the paper's pull-based protocol over any net.PacketConn, running
//     the real codec end to end.
//
// The packet-level simulation that regenerates the paper's evaluation
// is not part of this API: cmd/poly runs it
// (poly bench regenerates the paper's figures, poly sweep any scenario
// over seeds), and internal/harness holds its scenarios, each sized by
// one Default and one flag binding.
//
// See README.md for a tour and EXPERIMENTS.md for paper-vs-measured
// results.
package polyraptor

import (
	"context"
	"net"

	"polyraptor/internal/raptorq"
	"polyraptor/internal/rqudp"
)

// Codec types, re-exported from the internal implementation.
type (
	// ObjectEncoder encodes an object into (SBN, ESI)-addressed
	// encoding symbols; systematic and rateless.
	ObjectEncoder = raptorq.ObjectEncoder
	// ObjectDecoder reconstructs an object from any sufficiently large
	// symbol set, in place: symbols are received into one buffer the
	// size of the object, and Object returns that buffer, not a copy.
	ObjectDecoder = raptorq.ObjectDecoder
	// BlockLayout describes an object's source-block partitioning.
	BlockLayout = raptorq.BlockLayout
	// CodeParams holds per-block code parameters (K, S, H, L, W, P).
	CodeParams = raptorq.Params
)

// Codec errors.
var (
	// ErrNeedMoreSymbols: fewer than K symbols held for some block.
	ErrNeedMoreSymbols = raptorq.ErrNeedMoreSymbols
	// ErrSingular: held symbols do not determine the block; add more.
	ErrSingular = raptorq.ErrSingular
)

// EncodeObject partitions data into blocks of at most maxBlockK
// symbols of symbolSize bytes. The returned encoder generates any
// encoding symbol on demand; it keeps data, and precodes a block only
// when first asked for a repair symbol of it, so source symbols cost
// nothing to produce and a block never asked for repair is never
// precoded:
//
//	enc, _ := polyraptor.EncodeObject(data, 1024, 256)
//	sym := enc.Symbol(0, 5) // source symbol 5 of block 0
//	rep := enc.Symbol(0, uint32(enc.Layout().K[0])) // first repair: precodes block 0
func EncodeObject(data []byte, symbolSize, maxBlockK int) (*ObjectEncoder, error) {
	return raptorq.NewObjectEncoder(data, symbolSize, maxBlockK)
}

// EncodeObjectWorkers is EncodeObject that pays every precode up front:
// the blocks are precoded before it returns, on workers goroutines
// (workers <= 0 selects GOMAXPROCS). Blocks are independent, so the
// produced encoder is byte-identical for every worker count, and to
// EncodeObject's.
func EncodeObjectWorkers(data []byte, symbolSize, maxBlockK, workers int) (*ObjectEncoder, error) {
	return raptorq.NewObjectEncoderWorkers(data, symbolSize, maxBlockK, workers)
}

// NewObjectDecoder creates a decoder for an object with the given
// layout (obtained from the encoder or a wire announcement).
func NewObjectDecoder(layout BlockLayout) (*ObjectDecoder, error) {
	return raptorq.NewObjectDecoder(layout)
}

// NewBlockLayout computes the block partitioning for an object of
// size f.
func NewBlockLayout(f int64, symbolSize, maxBlockK int) (BlockLayout, error) {
	return raptorq.NewBlockLayout(f, symbolSize, maxBlockK)
}

// DecodeFailureProb returns the modelled probability that a block
// fails to decode from K+overhead distinct symbols (~1e-2 at zero
// overhead, two decades per extra symbol).
func DecodeFailureProb(overhead int) float64 {
	return raptorq.DecodeFailureProb(overhead)
}

// Transport types, re-exported.
type (
	// Server serves one object to any number of pull-driven receivers
	// over a net.PacketConn.
	Server = rqudp.Server
	// TransportConfig tunes the UDP transport: symbol and block size, the
	// stall period and how many in a row abort a fetch, decode workers.
	TransportConfig = rqudp.Config
	// FetchStats reports symbols, duplicates, per-sender contributions,
	// re-grants, stall periods and the socket I/O (reads, datagrams,
	// pulls, send errors) of one fetch.
	FetchStats = rqudp.FetchStats
	// ServerStats is the socket I/O a Server has done, from Server.Stats:
	// reads, datagrams, pulls, and the sends that carried symbols
	// (SymbolsSent/SendCalls is the mean train); and the blocks it has
	// precoded.
	ServerStats = rqudp.ServerStats
)

// DefaultTransportConfig returns LAN-appropriate transport defaults.
func DefaultTransportConfig() TransportConfig { return rqudp.DefaultConfig() }

// NewServer builds a server for one object. It does no codec work: the
// server sends source symbols from blob as it lies and precodes a block
// the first time a receiver needs a repair symbol of it, so it is ready
// in time proportional to the block count. Run Serve in a goroutine and
// Close to stop:
//
//	conn, _ := net.ListenPacket("udp", ":9000")
//	srv, _ := polyraptor.NewServer(conn, blob, polyraptor.DefaultTransportConfig())
//	go srv.Serve() // sends at once; srv.Stats().Precoded counts the blocks precoded
func NewServer(conn net.PacketConn, object []byte, cfg TransportConfig) (*Server, error) {
	return rqudp.NewServer(conn, object, cfg)
}

// Fetch retrieves the object served at remote (unicast). It gives up
// after cfg.MaxRetries stall periods of cfg.RetryInterval in a row with no
// new symbol, or when ctx is done.
func Fetch(ctx context.Context, conn net.PacketConn, remote net.Addr, flow uint32, cfg TransportConfig) ([]byte, error) {
	data, _, err := rqudp.FetchMultiSourceStats(ctx, conn, []net.Addr{remote}, flow, cfg)
	return data, err
}

// FetchMultiSource retrieves one object replicated at every remote,
// pulling from all of them without sender coordination.
func FetchMultiSource(ctx context.Context, conn net.PacketConn, remotes []net.Addr, flow uint32, cfg TransportConfig) ([]byte, error) {
	data, _, err := rqudp.FetchMultiSourceStats(ctx, conn, remotes, flow, cfg)
	return data, err
}

// FetchMultiSourceStats is FetchMultiSource returning per-transfer
// statistics (symbol counts, per-sender contributions, re-grants of
// silent senders, stall periods).
func FetchMultiSourceStats(ctx context.Context, conn net.PacketConn, remotes []net.Addr, flow uint32, cfg TransportConfig) ([]byte, FetchStats, error) {
	return rqudp.FetchMultiSourceStats(ctx, conn, remotes, flow, cfg)
}
