// Command rqtool exercises the real RaptorQ codec and the UDP
// transport on real files.
//
// Subcommands:
//
//	rqtool serve -addr :9000 -file blob.bin
//	    Serve a file to pull-driven receivers.
//
//	rqtool fetch -out blob.bin -from host:9000[,host2:9000,...]
//	    Fetch a file; multiple comma-separated sources perform an
//	    uncoordinated multi-source fetch.
//
//	rqtool roundtrip -file blob.bin [-loss 0.2] [-symbol 1024] [-maxk 256]
//	    Offline: encode the file, simulate symbol loss, decode, verify
//	    bit-exactness, and print codec statistics.
//
//	rqtool throughput -file blob.bin [-loss 0.3] [-symbol 1436] [-maxk 256] [-reps 3] [-workers 0]
//	    Offline: measure encode and decode throughput (MB/s) and heap
//	    allocations over the file — the codec-pipeline numbers on real
//	    data rather than synthetic benchmark blocks.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"runtime"
	"time"

	"polyraptor"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "serve":
		serve(os.Args[2:])
	case "fetch":
		fetch(os.Args[2:])
	case "roundtrip":
		roundtrip(os.Args[2:])
	case "throughput":
		throughput(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: rqtool {serve|fetch|roundtrip|throughput} [flags]")
	os.Exit(2)
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "rqtool:", err)
	os.Exit(1)
}

func serve(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":9000", "UDP listen address")
	file := fs.String("file", "", "file to serve")
	_ = fs.Parse(args)
	if *file == "" {
		die(fmt.Errorf("serve: -file required"))
	}
	data, err := os.ReadFile(*file)
	if err != nil {
		die(err)
	}
	conn, err := net.ListenPacket("udp", *addr)
	if err != nil {
		die(err)
	}
	cfg := polyraptor.DefaultTransportConfig()
	srv, err := polyraptor.NewServer(conn, data, cfg)
	if err != nil {
		die(err)
	}
	layout, err := polyraptor.NewBlockLayout(int64(len(data)), cfg.SymbolSize, cfg.MaxBlockK)
	if err != nil {
		die(err)
	}
	fmt.Printf("serving %s (%d bytes, %d blocks) on %s\n",
		*file, len(data), layout.Z(), srv.Addr())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		srv.Close()
	}()
	if err := srv.Serve(); err != nil {
		die(err)
	}
}

func fetch(args []string) {
	fs := flag.NewFlagSet("fetch", flag.ExitOnError)
	out := fs.String("out", "", "output file")
	from := fs.String("from", "", "comma-separated server addresses")
	timeout := fs.Duration("timeout", time.Minute, "overall deadline")
	_ = fs.Parse(args)
	if *out == "" || *from == "" {
		die(fmt.Errorf("fetch: -out and -from required"))
	}
	var remotes []net.Addr
	for _, a := range splitComma(*from) {
		ra, err := net.ResolveUDPAddr("udp", a)
		if err != nil {
			die(err)
		}
		remotes = append(remotes, ra)
	}
	conn, err := net.ListenPacket("udp", ":0")
	if err != nil {
		die(err)
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	start := time.Now()
	data, err := polyraptor.FetchMultiSource(ctx, conn, remotes, uint32(os.Getpid()), polyraptor.DefaultTransportConfig())
	if err != nil {
		die(err)
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		die(err)
	}
	el := time.Since(start)
	fmt.Printf("fetched %d bytes from %d source(s) in %v (%.1f Mbit/s)\n",
		len(data), len(remotes), el.Round(time.Millisecond),
		float64(len(data)*8)/el.Seconds()/1e6)
}

func splitComma(s string) []string {
	var out []string
	for len(s) > 0 {
		i := 0
		for i < len(s) && s[i] != ',' {
			i++
		}
		if i > 0 {
			out = append(out, s[:i])
		}
		if i == len(s) {
			break
		}
		s = s[i+1:]
	}
	return out
}

func roundtrip(args []string) {
	fs := flag.NewFlagSet("roundtrip", flag.ExitOnError)
	file := fs.String("file", "", "input file")
	loss := fs.Float64("loss", 0.2, "symbol loss fraction")
	symbol := fs.Int("symbol", 1024, "symbol size")
	maxK := fs.Int("maxk", 256, "max source symbols per block")
	seed := fs.Int64("seed", 1, "loss pattern seed")
	_ = fs.Parse(args)
	if *file == "" {
		die(fmt.Errorf("roundtrip: -file required"))
	}
	data, err := os.ReadFile(*file)
	if err != nil {
		die(err)
	}
	t0 := time.Now()
	// Precode every block up front, so that the time reported is the encode.
	enc, err := polyraptor.EncodeObjectWorkers(data, *symbol, *maxK, 0)
	if err != nil {
		die(err)
	}
	encTime := time.Since(t0)
	layout := enc.Layout()
	fmt.Printf("encoded %d bytes: %d blocks, %d source symbols of %d B (%v, %.1f MB/s)\n",
		len(data), layout.Z(), layout.TotalSymbols(), *symbol,
		encTime.Round(time.Millisecond),
		float64(len(data))/encTime.Seconds()/1e6)

	dec, err := polyraptor.NewObjectDecoder(layout)
	if err != nil {
		die(err)
	}
	rng := rand.New(rand.NewSource(*seed))
	lost, delivered, repair := 0, 0, 0
	for sbn, k := range layout.K {
		for i := 0; i < k; i++ {
			if rng.Float64() < *loss {
				lost++
				continue
			}
			delivered++
			if _, err := dec.AddSymbol(sbn, uint32(i), enc.Symbol(sbn, uint32(i))); err != nil {
				die(err)
			}
		}
		esi := uint32(k)
		for !dec.BlockComplete(sbn) {
			if dec.TryDecode() && dec.BlockComplete(sbn) {
				break
			}
			if _, err := dec.AddSymbol(sbn, esi, enc.Symbol(sbn, esi)); err != nil {
				die(err)
			}
			repair++
			esi++
		}
	}
	t1 := time.Now()
	got, err := dec.Object()
	if err != nil {
		die(err)
	}
	decTime := time.Since(t1)
	if !bytes.Equal(got, data) {
		die(fmt.Errorf("roundtrip: decoded object differs from input"))
	}
	fmt.Printf("lost %d source symbols (%.0f%%), used %d repair symbols, overhead %.2f%%\n",
		lost, *loss*100, repair, 100*float64(repair-lost)/float64(layout.TotalSymbols()))
	fmt.Printf("decoded and verified bit-exact (%v)\n", decTime.Round(time.Millisecond))
}

// throughputOpts are the validated parameters of the throughput mode.
type throughputOpts struct {
	symbol  int
	maxK    int
	reps    int
	workers int
	loss    float64
	seed    int64
}

// validate rejects out-of-range flags before any file I/O happens, so
// a typo fails in microseconds instead of after reading a large file.
func (o throughputOpts) validate() error {
	if o.symbol < 1 || o.symbol > 60000 {
		return fmt.Errorf("throughput: -symbol %d out of range [1, 60000]", o.symbol)
	}
	if o.maxK < 1 {
		return fmt.Errorf("throughput: -maxk %d must be >= 1", o.maxK)
	}
	if o.reps < 1 || o.reps > 1000 {
		return fmt.Errorf("throughput: -reps %d out of range [1, 1000]", o.reps)
	}
	if o.workers < 0 {
		return fmt.Errorf("throughput: -workers %d must be >= 0", o.workers)
	}
	if o.loss < 0 || o.loss >= 1 {
		return fmt.Errorf("throughput: -loss %g out of range [0, 1)", o.loss)
	}
	return nil
}

func throughput(args []string) {
	fs := flag.NewFlagSet("throughput", flag.ExitOnError)
	file := fs.String("file", "", "input file")
	symbol := fs.Int("symbol", 1436, "symbol size (bytes)")
	maxK := fs.Int("maxk", 256, "max source symbols per block")
	reps := fs.Int("reps", 3, "repetitions per phase")
	workers := fs.Int("workers", 0, "block-parallel workers (0 = GOMAXPROCS)")
	loss := fs.Float64("loss", 0.30, "source loss fraction for the lossy decode phase")
	seed := fs.Int64("seed", 1, "loss pattern seed")
	_ = fs.Parse(args)
	opts := throughputOpts{
		symbol: *symbol, maxK: *maxK, reps: *reps,
		workers: *workers, loss: *loss, seed: *seed,
	}
	if err := opts.validate(); err != nil {
		die(err)
	}
	if *file == "" {
		die(fmt.Errorf("throughput: -file required"))
	}
	data, err := os.ReadFile(*file)
	if err != nil {
		die(err)
	}
	if len(data) == 0 {
		die(fmt.Errorf("throughput: %s is empty", *file))
	}
	if err := runThroughput(os.Stdout, data, opts); err != nil {
		die(err)
	}
}

// measurePhase runs f under a MemStats bracket and returns wall time
// plus heap allocation count. A GC up front keeps the previous phase's
// garbage out of this phase's numbers.
func measurePhase(f func() error) (time.Duration, uint64, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := f()
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return el, m1.Mallocs - m0.Mallocs, err
}

// runThroughput measures the codec pipeline over real file bytes:
// object encode, systematic decode (no loss) and lossy decode at the
// configured loss fraction, each repeated opts.reps times. Every decode
// is verified bit-exact against the input before its timing counts.
func runThroughput(w io.Writer, data []byte, opts throughputOpts) error {
	mb := float64(len(data)) / 1e6
	report := func(phase string, el time.Duration, allocs uint64) {
		fmt.Fprintf(w, "%-18s %d x %.1f MB in %v  (%.1f MB/s, %d allocs/op)\n",
			phase, opts.reps, mb, el.Round(time.Millisecond),
			mb*float64(opts.reps)/el.Seconds(), allocs/uint64(opts.reps))
	}

	var enc *polyraptor.ObjectEncoder
	el, allocs, err := measurePhase(func() error {
		for r := 0; r < opts.reps; r++ {
			var err error
			enc, err = polyraptor.EncodeObjectWorkers(data, opts.symbol, opts.maxK, opts.workers)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	report("encode", el, allocs)

	layout := enc.Layout()
	decodeOnce := func(loss float64, seed int64) error {
		dec, err := polyraptor.NewObjectDecoder(layout)
		if err != nil {
			return err
		}
		dec.SetWorkers(opts.workers)
		rng := rand.New(rand.NewSource(seed))
		for sbn, k := range layout.K {
			for i := 0; i < k; i++ {
				if loss > 0 && rng.Float64() < loss {
					continue
				}
				if _, err := dec.AddSymbol(sbn, uint32(i), enc.Symbol(sbn, uint32(i))); err != nil {
					return err
				}
			}
			esi := uint32(k)
			for !dec.BlockComplete(sbn) {
				if dec.TryDecode() && dec.BlockComplete(sbn) {
					break
				}
				if _, err := dec.AddSymbol(sbn, esi, enc.Symbol(sbn, esi)); err != nil {
					return err
				}
				esi++
			}
		}
		got, err := dec.Object()
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("throughput: decoded object differs from input")
		}
		return nil
	}
	runDecode := func(loss float64) (time.Duration, uint64, error) {
		return measurePhase(func() error {
			for r := 0; r < opts.reps; r++ {
				if err := decodeOnce(loss, opts.seed+int64(r)); err != nil {
					return err
				}
			}
			return nil
		})
	}

	el, allocs, err = runDecode(0)
	if err != nil {
		return err
	}
	report("decode systematic", el, allocs)

	el, allocs, err = runDecode(opts.loss)
	if err != nil {
		return err
	}
	report(fmt.Sprintf("decode %.0f%% loss", opts.loss*100), el, allocs)
	return nil
}
