// Package chaos is a deterministic fault-injection engine for the
// simulated fat tree: it executes a seeded fault plan on the sim
// timeline — links blackholed and restored, whole switches killed,
// links made lossy, links flapping — via the netsim fault hooks
// (Port.SetUp/SetLossRate, Switch.SetDown) and the topology layer's
// link/switch enumeration. Polyraptor's headline claim is that
// per-packet spraying plus rateless coding rides through exactly these
// faults without rerouting or retransmission state; this package is
// what puts that claim under mid-flow failures instead of static
// pre-run degradation (FatPaths frames failure tolerance as the
// decisive axis for multipath transports — this is our testbed for
// it).
//
// Everything is deterministic per Plan.Seed: target selection uses the
// seeded-fraction picker shared with topology.DegradeCoreLinks, and
// fault timing is plain sim events, so experiment repetitions and
// parallel sweeps are byte-reproducible.
package chaos

import (
	"fmt"
	"time"

	"polyraptor/internal/netsim"
	"polyraptor/internal/sim"
	"polyraptor/internal/telemetry"
	"polyraptor/internal/topology"
)

// MinFlapPeriod bounds how fast links may flap. Flapping faster than
// a handful of frame serializations is physically meaningless and
// would schedule an unbounded toggle-event storm (a 1 ns period over
// a 100 ms window is 10^8 events), so Validate rejects it.
const MinFlapPeriod = 100 * time.Microsecond

// Kind is the fault type a plan injects.
type Kind int

const (
	// KindLinkDown blackholes the targeted links (both directions) at
	// FailAt; RecoverAt restores them. Remote ECMP groups do not see
	// the failure — packets routed to a dead remote link are
	// blackholed, the scenario that strands hash-pinned TCP flows.
	KindLinkDown Kind = iota
	// KindSwitchKill kills whole switches: every arriving packet is
	// dropped, the switch's own egress stops, and neighbours filter it
	// from their equal-cost sets (local link-state reaction).
	KindSwitchKill
	// KindLinkLoss makes the targeted links lossy: each transmitted
	// frame is destroyed with probability LossRate.
	KindLinkLoss
	// KindLinkFlap toggles the targeted links down/up every
	// FlapPeriod/2 from FailAt until RecoverAt (ending up).
	KindLinkFlap
)

// String returns the CLI name of the kind.
func (k Kind) String() string {
	switch k {
	case KindLinkDown:
		return "link"
	case KindSwitchKill:
		return "switch"
	case KindLinkLoss:
		return "loss"
	case KindLinkFlap:
		return "flap"
	}
	return "unknown"
}

// ParseKind maps a CLI name to a Kind.
func ParseKind(name string) (Kind, bool) {
	switch name {
	case "link":
		return KindLinkDown, true
	case "switch":
		return KindSwitchKill, true
	case "loss":
		return KindLinkLoss, true
	case "flap":
		return KindLinkFlap, true
	}
	return 0, false
}

// MarshalText and UnmarshalText spell a Kind by its CLI name, so a
// flag can bind it (flag.TextVar).
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

func (k *Kind) UnmarshalText(name []byte) error {
	v, ok := ParseKind(string(name))
	if !ok {
		return fmt.Errorf("unknown fault kind %q (link, switch, loss, flap)", name)
	}
	*k = v
	return nil
}

// Layer selects which tier of the fat tree the plan targets.
type Layer int

const (
	// LayerCore targets agg<->core links, or core switches for
	// KindSwitchKill.
	LayerCore Layer = iota
	// LayerAgg targets edge<->agg links, or aggregation switches.
	LayerAgg
	// LayerHost targets host<->edge links, or edge (ToR) switches.
	LayerHost
)

// String returns the CLI name of the layer.
func (l Layer) String() string {
	switch l {
	case LayerCore:
		return "core"
	case LayerAgg:
		return "agg"
	case LayerHost:
		return "host"
	}
	return "unknown"
}

// ParseLayer maps a CLI name to a Layer.
func ParseLayer(name string) (Layer, bool) {
	switch name {
	case "core":
		return LayerCore, true
	case "agg":
		return LayerAgg, true
	case "host":
		return LayerHost, true
	}
	return 0, false
}

// MarshalText and UnmarshalText spell a Layer by its CLI name, so a
// flag can bind it (flag.TextVar).
func (l Layer) MarshalText() ([]byte, error) { return []byte(l.String()), nil }

func (l *Layer) UnmarshalText(name []byte) error {
	v, ok := ParseLayer(string(name))
	if !ok {
		return fmt.Errorf("unknown layer %q (core, agg, host)", name)
	}
	*l = v
	return nil
}

// Plan is one declarative fault script: what to break, how much of
// it, and when. The zero value is not useful; fill every field the
// Kind requires and Validate before injecting.
type Plan struct {
	// Kind is the fault type.
	Kind Kind
	// Layer is the fabric tier targeted.
	Layer Layer
	// Frac is the fraction of the layer's links (or switches, for
	// KindSwitchKill) to target: round(Frac*n) seeded picks.
	Frac float64
	// FailAt is when the faults strike (sim time from run start).
	FailAt sim.Time
	// RecoverAt is when they heal; 0 means never (not allowed for
	// KindLinkFlap, which must end).
	RecoverAt sim.Time
	// FlapPeriod is the full down+up cycle length for KindLinkFlap.
	FlapPeriod sim.Time
	// LossRate is the per-frame destruction probability for
	// KindLinkLoss, in (0, 1].
	LossRate float64
	// Seed drives target selection.
	Seed int64
}

// Validate reports whether the plan is executable — the up-front
// check every CLI and harness entry point runs before building
// anything.
func (p Plan) Validate() error {
	if p.Kind < KindLinkDown || p.Kind > KindLinkFlap {
		return fmt.Errorf("chaos: unknown fault kind %d", p.Kind)
	}
	if p.Layer < LayerCore || p.Layer > LayerHost {
		return fmt.Errorf("chaos: unknown layer %d", p.Layer)
	}
	if !(p.Frac >= 0 && p.Frac <= 1) { // negated so NaN is rejected too
		return fmt.Errorf("chaos: frac must be in [0, 1], got %g", p.Frac)
	}
	if p.FailAt < 0 {
		return fmt.Errorf("chaos: fail-at must be >= 0, got %v", p.FailAt)
	}
	if p.RecoverAt != 0 && p.RecoverAt <= p.FailAt {
		return fmt.Errorf("chaos: recover-at %v must be after fail-at %v", p.RecoverAt, p.FailAt)
	}
	switch p.Kind {
	case KindLinkLoss:
		if !(p.LossRate > 0 && p.LossRate <= 1) { // negated so NaN is rejected too
			return fmt.Errorf("chaos: loss fault needs loss rate in (0, 1], got %g", p.LossRate)
		}
	case KindLinkFlap:
		if p.FlapPeriod < MinFlapPeriod {
			return fmt.Errorf("chaos: flap fault needs flap period >= %v, got %v", MinFlapPeriod, p.FlapPeriod)
		}
		if p.RecoverAt == 0 {
			return fmt.Errorf("chaos: flap fault needs a recover time (it must stop toggling)")
		}
	}
	return nil
}

// Event is one executed fault action, recorded for reports.
type Event struct {
	At     sim.Time
	Action string
	Target string
}

// Injection is one applied plan: the chosen targets and, as the
// simulation runs, the log of executed fault events.
type Injection struct {
	Plan Plan
	// Targets names the links or switches the plan struck.
	Targets []string
	// Events logs every executed action in timeline order.
	Events []Event

	// rec mirrors the log into the PolyScope flight recorder (nil when
	// tracing is off), so fault executions land on the trace timeline
	// next to the flows they strand.
	rec *telemetry.Recorder
}

// TargetCount returns how many links/switches the plan struck.
func (in *Injection) TargetCount() int { return len(in.Targets) }

func (in *Injection) log(at sim.Time, action, target string) {
	in.Events = append(in.Events, Event{At: at, Action: action, Target: target})
	if in.rec != nil {
		in.rec.RecordLabel(at, -1, telemetry.EvFault, -1, action+" "+target)
	}
}

// layerLinks enumerates the plan's link layer.
func layerLinks(ft *topology.FatTree, l Layer) []topology.Link {
	switch l {
	case LayerCore:
		return ft.CoreLinks()
	case LayerAgg:
		return ft.AggLinks()
	default:
		return ft.HostLinks()
	}
}

// layerSwitches enumerates the plan's switch layer.
func layerSwitches(ft *topology.FatTree, l Layer) []*netsim.Switch {
	switch l {
	case LayerCore:
		return ft.CoreSwitches()
	case LayerAgg:
		return ft.AggSwitches()
	default:
		return ft.EdgeSwitches()
	}
}

// Inject validates the plan, picks its seeded targets on the fat tree
// and schedules every fault action on the network's sim timeline. It
// must be called before the simulation starts (fault times are
// absolute). The returned Injection accumulates the event log as the
// engine executes.
func Inject(ft *topology.FatTree, p Plan) (*Injection, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	in := &Injection{Plan: p, rec: ft.Net.Rec}
	eng := ft.Net.Eng

	if p.Kind == KindSwitchKill {
		sws := topology.PickSwitches(layerSwitches(ft, p.Layer), p.Frac, p.Seed)
		for _, sw := range sws {
			in.Targets = append(in.Targets, sw.Name)
		}
		eng.At(p.FailAt, func() {
			for _, sw := range sws {
				sw.SetDown(true)
				// A dead switch stops transmitting too: park every
				// egress queue so frames stop draining out of it.
				for _, port := range sw.Ports {
					port.SetUp(false)
				}
				in.log(p.FailAt, "switch-kill", sw.Name)
			}
		})
		if p.RecoverAt > 0 {
			eng.At(p.RecoverAt, func() {
				for _, sw := range sws {
					sw.SetDown(false)
					for _, port := range sw.Ports {
						port.SetUp(true)
					}
					in.log(p.RecoverAt, "switch-restore", sw.Name)
				}
			})
		}
		return in, nil
	}

	links := topology.PickLinks(layerLinks(ft, p.Layer), p.Frac, p.Seed)
	for _, l := range links {
		in.Targets = append(in.Targets, l.Name)
	}
	switch p.Kind {
	case KindLinkDown:
		eng.At(p.FailAt, func() {
			for _, l := range links {
				l.SetUp(false)
				in.log(p.FailAt, "link-down", l.Name)
			}
		})
		if p.RecoverAt > 0 {
			eng.At(p.RecoverAt, func() {
				for _, l := range links {
					l.SetUp(true)
					in.log(p.RecoverAt, "link-up", l.Name)
				}
			})
		}
	case KindLinkLoss:
		eng.At(p.FailAt, func() {
			for _, l := range links {
				l.SetLossRate(p.LossRate)
				in.log(p.FailAt, "loss-on", l.Name)
			}
		})
		if p.RecoverAt > 0 {
			eng.At(p.RecoverAt, func() {
				for _, l := range links {
					l.SetLossRate(0)
					in.log(p.RecoverAt, "loss-off", l.Name)
				}
			})
		}
	case KindLinkFlap:
		// Toggle every half period, scheduling lazily so the engine's
		// queue holds at most one pending flap event at a time; the
		// final toggle at/after RecoverAt always leaves the links up.
		half := p.FlapPeriod / 2 // >= MinFlapPeriod/2 by Validate
		down := false
		set := func(d bool) {
			down = d
			action := "link-up"
			if d {
				action = "link-down"
			}
			for _, l := range links {
				l.SetUp(!d)
				in.log(eng.Now(), action, l.Name)
			}
		}
		var toggle func()
		toggle = func() {
			if eng.Now() >= p.RecoverAt {
				if down {
					set(false)
				}
				return
			}
			set(!down)
			eng.After(half, toggle)
		}
		eng.At(p.FailAt, toggle)
	}
	return in, nil
}
