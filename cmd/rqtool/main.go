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
// Codec throughput is timed by PolyBench's codec_object workload
// (go run ./benchmark --workload codec_object) and by polyperf's codec
// cells (go run ./cmd/polyperf).
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/signal"
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
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: rqtool {serve|fetch|roundtrip} [flags]")
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
