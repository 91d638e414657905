package polyraptor

import (
	"testing"
	"time"

	"polyraptor/internal/netsim"
	"polyraptor/internal/topology"
)

func TestPullTimeoutRecoversFromControlLoss(t *testing.T) {
	// A pathologically small header queue drops pulls and trimmed
	// headers under burst, starving the credit loop; the receiver's
	// pull-timeout guard must recover and every session must finish.
	cfg := netsim.DefaultConfig()
	cfg.DataQueueCap = 2
	cfg.HeaderQueueCap = 4 // drops control traffic under any burst
	st := topology.NewStar(6, cfg)
	pcfg := DefaultConfig()
	pcfg.PullTimeout = 500 * time.Microsecond
	sys := NewSystem(st.Net, pcfg, 1)
	done := 0
	for s := 1; s <= 5; s++ {
		sys.StartUnicast(s, 0, 256<<10, func(ev CompletionEvent) { done++ })
	}
	drain(t, sys)
	if done != 5 {
		t.Fatalf("%d/5 sessions survived control-plane loss", done)
	}
}

func TestNoPullTimeoutWedgesUnderControlLoss(t *testing.T) {
	// Control: with the guard disabled the same scenario can wedge —
	// documents why the guard exists. We only assert the run
	// terminates (no live-lock) and that the guard test above is the
	// meaningful contrast, not a tautology.
	cfg := netsim.DefaultConfig()
	cfg.DataQueueCap = 2
	cfg.HeaderQueueCap = 4
	st := topology.NewStar(6, cfg)
	pcfg := DefaultConfig()
	pcfg.PullTimeout = 0 // disabled
	sys := NewSystem(st.Net, pcfg, 1)
	done := 0
	for s := 1; s <= 5; s++ {
		sys.StartUnicast(s, 0, 256<<10, func(ev CompletionEvent) { done++ })
	}
	st.Net.Eng.RunUntil(5 * time.Second)
	t.Logf("without guard: %d/5 completed (wedging is permitted)", done)
}

func TestTrimmedSymbolsStillClockPulls(t *testing.T) {
	// Under heavy trimming the credit loop must keep turning: every
	// trimmed header yields a pull, so sessions complete with extra
	// symbols rather than stalling.
	cfg := netsim.DefaultConfig()
	cfg.DataQueueCap = 1
	st := topology.NewStar(4, cfg)
	sys := NewSystem(st.Net, DefaultConfig(), 2)
	var evs []CompletionEvent
	for s := 1; s <= 3; s++ {
		sys.StartUnicast(s, 0, 512<<10, collect(&evs))
	}
	drain(t, sys)
	if len(evs) != 3 {
		t.Fatalf("%d/3 completed", len(evs))
	}
	trims := 0
	for _, ev := range evs {
		trims += ev.Trims
	}
	if trims == 0 {
		t.Fatal("dataCap=1 incast produced no trims; scenario is vacuous")
	}
}

func TestSessionsFreeStateOnCompletion(t *testing.T) {
	st := topology.NewStar(2, netsim.DefaultConfig())
	sys := NewSystem(st.Net, DefaultConfig(), 3)
	var evs []CompletionEvent
	for i := 0; i < 10; i++ {
		sys.StartUnicast(0, 1, 64<<10, collect(&evs))
	}
	drain(t, sys)
	if len(evs) != 10 {
		t.Fatalf("%d/10 completed", len(evs))
	}
	if n := sys.Agents[1].flows.recv; n != 0 {
		t.Fatalf("%d receiver sessions leaked", n)
	}
	// Finished sender sessions are deleted outright (the PR 4 leak
	// fix), not merely marked finished.
	if n := sys.Agents[0].flows.send; n != 0 {
		t.Fatalf("%d sender sessions leaked", n)
	}
}

func TestLateDataAfterCompletionIsIgnored(t *testing.T) {
	// Inject a stray symbol for a finished flow: must not panic or
	// double-complete.
	st := topology.NewStar(2, netsim.DefaultConfig())
	sys := NewSystem(st.Net, DefaultConfig(), 4)
	count := 0
	sys.StartUnicast(0, 1, 64<<10, func(ev CompletionEvent) { count++ })
	drain(t, sys)
	st.Hosts[0].Send(&netsim.Packet{
		Flow: 0, Kind: netsim.KindData, Size: netsim.DataSize,
		Src: 0, Dst: 1, Group: -1, Seq: 99999,
	})
	drain(t, sys)
	if count != 1 {
		t.Fatalf("completions = %d", count)
	}
}

func TestUnknownFlowPacketsIgnored(t *testing.T) {
	st := topology.NewStar(2, netsim.DefaultConfig())
	sys := NewSystem(st.Net, DefaultConfig(), 5)
	for _, kind := range []netsim.Kind{netsim.KindData, netsim.KindPull, netsim.KindCtrl, netsim.KindAck} {
		st.Hosts[0].Send(&netsim.Packet{
			Flow: 7777, Kind: kind, Size: netsim.HeaderSize,
			Src: 0, Dst: 1, Group: -1,
		})
	}
	drain(t, sys) // must not panic
}

func TestMulticastTwoReceiversOneStrugglesBriefly(t *testing.T) {
	// Transient congestion (short background burst) on one receiver
	// must not detach it when detachment is enabled with the default
	// threshold — detachment is for persistent stragglers.
	st := topology.NewStar(6, netsim.DefaultConfig())
	pcfg := DefaultConfig()
	pcfg.StragglerDetach = true
	sys := NewSystem(st.Net, pcfg, 6)
	sys.PruneGroup = st.PruneMulticastLeaf
	// Short burst: 64 KB onto receiver 2's downlink.
	sys.StartUnicast(4, 2, 64<<10, nil)
	receivers := []int{1, 2}
	g := st.InstallMulticastGroup(0, receivers)
	var evs []CompletionEvent
	sys.StartMulticast(0, receivers, g, 2<<20, collect(&evs))
	drain(t, sys)
	if len(evs) != 2 {
		t.Fatalf("%d/2 receivers completed", len(evs))
	}
	for _, ev := range evs {
		if ev.Detached {
			t.Fatalf("receiver %d detached over a transient 64KB burst", ev.Receiver)
		}
	}
}

func TestConfigValidationPanics(t *testing.T) {
	st := topology.NewStar(2, netsim.DefaultConfig())
	bad := DefaultConfig()
	bad.InitWindow = 0
	assertPanics(t, func() { NewSystem(st.Net, bad, 1) }, "InitWindow=0")
	bad2 := DefaultConfig()
	bad2.SymbolPayload = 0
	assertPanics(t, func() { NewSystem(st.Net, bad2, 1) }, "SymbolPayload=0")
	sys := NewSystem(st.Net, DefaultConfig(), 1)
	assertPanics(t, func() { sys.StartMultiSource(nil, 0, 100, nil) }, "no senders")
	assertPanics(t, func() { sys.StartMulticast(0, nil, 0, 100, nil) }, "no receivers")
}

func assertPanics(t *testing.T, f func(), what string) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}
