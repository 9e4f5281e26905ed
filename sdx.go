// Package sdx is a software defined Internet exchange point, a
// from-scratch Go implementation of "SDX: A Software Defined Internet
// Exchange" (Gupta et al., SIGCOMM 2014).
//
// An SDX gives each participant AS the illusion of its own virtual SDN
// switch on which it can write fine-grained forwarding policies —
// application-specific peering, inbound traffic engineering, wide-area
// server load balancing, middlebox redirection — while the runtime
// guarantees isolation between participants and consistency with the BGP
// routes exchanged at the IXP's route server. The compilation pipeline
// keeps the switch rule table small by grouping prefixes into forwarding
// equivalence classes tagged with virtual MAC addresses, and reacts to
// BGP updates in sub-second time through a two-stage fast path.
//
// # Quick start
//
//	x := sdx.New()
//	a, _ := x.AddParticipant(sdx.ParticipantConfig{AS: 100, Name: "A",
//		Ports: []sdx.PhysicalPort{{ID: 1}}})
//	_ = a
//	// AS A: web via B, everything else follows BGP.
//	x.Recompile(sdx.CompilePolicy(100, nil, []sdx.Term{
//		sdx.Fwd(sdx.MatchAll.DstPort(80), 200),
//	}))
//
// Border routers attach with the router package
// (sdx/internal/router.Attach) or over real BGP sessions via ListenBGP.
// See the examples directory for complete scenarios and DESIGN.md for
// the architecture.
package sdx

import (
	"sdx/internal/arp"
	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/dataplane"
	"sdx/internal/fabric"
	"sdx/internal/flow"
	"sdx/internal/iputil"
	"sdx/internal/pkt"
	"sdx/internal/policy"
	"sdx/internal/rs"
	"sdx/internal/telemetry"
)

// Core controller types.
type (
	// Controller is the SDX controller: route server, policy compiler,
	// fabric switch and ARP responder in one.
	Controller = core.Controller
	// ParticipantConfig declares one member AS.
	ParticipantConfig = core.ParticipantConfig
	// Participant is a registered member AS.
	Participant = core.Participant
	// PhysicalPort is a border-router attachment to the fabric.
	PhysicalPort = core.PhysicalPort
	// Term is one policy term (match plus action).
	Term = core.Term
	// TermAction is a term's forwarding action.
	TermAction = core.TermAction
	// RouteAd is a (VNH-rewritten) route advertisement to a border router.
	RouteAd = core.RouteAd
	// UpdateResult reports the effect of one BGP update.
	UpdateResult = core.UpdateResult
	// CompileReport summarizes a full compilation pass.
	CompileReport = core.CompileReport

	// CompileOption configures one Recompile pass (variadic-option form).
	CompileOption = core.CompileOption
	// Compiled is the output of a compilation pass.
	Compiled = core.Compiled
	// PrefixGroup is one forwarding equivalence class.
	PrefixGroup = core.PrefixGroup
	// ExportPolicy restricts route-server exports per peer.
	ExportPolicy = rs.ExportPolicy

	// PeerUpdate pairs one BGP UPDATE with the participant it came from —
	// the unit of the batch-first ingestion API (Controller.ApplyBatch).
	PeerUpdate = rs.PeerUpdate
	// UpdateQueue is the bounded, coalescing ingestion queue in front of
	// a Controller (NewUpdateQueue; see BGPServer.UseIngestQueue).
	UpdateQueue = core.UpdateQueue
	// QueueConfig tunes an UpdateQueue.
	QueueConfig = core.QueueConfig
	// QueueStats is a point-in-time snapshot of an UpdateQueue.
	QueueStats = core.QueueStats
)

// NewUpdateQueue builds and starts a coalescing ingestion queue in front
// of a controller.
var NewUpdateQueue = core.NewUpdateQueue

// ErrQueueClosed is returned by UpdateQueue.Enqueue after Stop.
var ErrQueueClosed = core.ErrQueueClosed

// Telemetry types (see internal/telemetry; injected with WithTelemetry /
// WithTracer, served by sdxd's -metrics endpoint).
type (
	// Registry is a named collection of counters, gauges and histograms.
	Registry = telemetry.Registry
	// Snapshot is a point-in-time copy of every metric in a registry.
	Snapshot = telemetry.Snapshot
	// HistogramSnapshot summarizes one histogram (count, sum, p50/95/99).
	HistogramSnapshot = telemetry.HistogramSnapshot
	// Tracer is a bounded ring buffer of typed control-plane events.
	Tracer = telemetry.Tracer
	// Event is one traced control-plane event.
	Event = telemetry.Event
	// EventType identifies one kind of traced event.
	EventType = telemetry.EventType
)

// Telemetry constructors and controller options.
var (
	// NewRegistry returns an empty metric registry.
	NewRegistry = telemetry.NewRegistry
	// NewTracer returns a tracer retaining the most recent events.
	NewTracer = telemetry.NewTracer
	// WithTelemetry injects a shared metric registry into a controller.
	WithTelemetry = core.WithTelemetry
	// WithTracer injects a shared event tracer into a controller.
	WithTracer = core.WithTracer
)

// Traced event types.
const (
	EventBGPUpdateReceived  = telemetry.EventBGPUpdateReceived
	EventFECChanged         = telemetry.EventFECChanged
	EventCompileStarted     = telemetry.EventCompileStarted
	EventCompileDone        = telemetry.EventCompileDone
	EventRuleInstalled      = telemetry.EventRuleInstalled
	EventARPReply           = telemetry.EventARPReply
	EventSessionStateChange = telemetry.EventSessionStateChange
)

// CompilePolicy folds a policy install into a Recompile call, the only
// Recompile option.
var CompilePolicy = core.CompilePolicy

// Packet-model types.
type (
	// Packet is a located packet in the fabric.
	Packet = pkt.Packet
	// Match is a conjunctive header predicate.
	Match = pkt.Match
	// Mods is a set of header rewrites.
	Mods = pkt.Mods
	// MAC is a 48-bit Ethernet address.
	MAC = pkt.MAC
	// PortID identifies a fabric port.
	PortID = pkt.PortID
	// Addr is an IPv4 address.
	Addr = iputil.Addr
	// Prefix is an IPv4 CIDR prefix.
	Prefix = iputil.Prefix
	// Classifier is a compiled prioritized rule list.
	Classifier = policy.Classifier
	// FlowEntry is one installed switch rule.
	FlowEntry = dataplane.FlowEntry
	// Update is a BGP UPDATE message.
	Update = bgp.Update
	// PathAttrs are BGP path attributes.
	PathAttrs = bgp.PathAttrs
	// ARPResponder answers virtual-next-hop ARP queries.
	ARPResponder = arp.Responder
)

// MatchAll is the wildcard match; build constraints fluently, e.g.
// sdx.MatchAll.DstPort(80).SrcIP(prefix).
var MatchAll = pkt.MatchAll

// NoMods is the empty header-rewrite set.
var NoMods = pkt.NoMods

// New returns a fresh SDX controller with an empty fabric.
func New(opts ...core.Option) *Controller { return core.NewController(opts...) }

// WithLogger directs controller logging to logf.
var WithLogger = core.WithLogger

// WithRouteAgeOut sets how long a flapped peer's routes survive before
// aging out of the RIBs.
var WithRouteAgeOut = core.WithRouteAgeOut

// Policy-term constructors (§2's four application idioms).
var (
	// Fwd builds an application-specific-peering outbound term.
	Fwd = core.Fwd
	// FwdPort builds an inbound traffic-engineering term.
	FwdPort = core.FwdPort
	// FwdMiddlebox builds a middlebox-redirection outbound term.
	FwdMiddlebox = core.FwdMiddlebox
	// DropTerm builds an explicit drop term.
	DropTerm = core.DropTerm
	// RewriteTerm builds a wide-area load-balancing rewrite term.
	RewriteTerm = core.RewriteTerm
)

// Address parsing helpers.
var (
	// ParseAddr parses a dotted-quad IPv4 address.
	ParseAddr = iputil.ParseAddr
	// MustParseAddr is ParseAddr panicking on error.
	MustParseAddr = iputil.MustParseAddr
	// ParsePrefix parses CIDR notation.
	ParsePrefix = iputil.ParsePrefix
	// MustParsePrefix is ParsePrefix panicking on error.
	MustParsePrefix = iputil.MustParsePrefix
	// ParseMAC parses colon-separated MAC notation.
	ParseMAC = pkt.ParseMAC
)

// Fabric addressing helpers.
var (
	// PortMAC derives a fabric port's real MAC address.
	PortMAC = core.PortMAC
	// PortIP derives a fabric port's IXP-subnet IP.
	PortIP = core.PortIP
	// IsVMAC reports whether a MAC tags a forwarding equivalence class.
	IsVMAC = core.IsVMAC
)

// VNHSubnet is the pool virtual next hops are drawn from.
var VNHSubnet = core.VNHSubnet

// IXPSubnet is the exchange's shared layer-2 subnet.
var IXPSubnet = core.IXPSubnet

// Multi-switch fabric (§4.1 "multiple physical switches").
type (
	// Fabric is an SDX data plane spread across several switches.
	Fabric = fabric.Fabric
	// FabricTopology describes the switches, port placement and trunks.
	FabricTopology = fabric.Topology
	// FabricLink is one inter-switch trunk.
	FabricLink = fabric.Link
)

// NewFabric builds a multi-switch fabric; attach it to a controller with
// Controller.AddRuleMirror.
var NewFabric = fabric.New

// Sampled flow export with BGP-correlated analytics: a 1-in-N dataplane
// sampler feeds compact flow records into an aggregator that joins
// heavy flows against the route server's Loc-RIB and can drive policy
// (auto-rebalancing an inbound-TE group away from an overloaded port).
type (
	// FlowSampler exports 1-in-N sampled packets as flow records
	// (attach with FlowTable.SetSampler).
	FlowSampler = flow.Sampler
	// FlowKey is the 5-tuple + ingress-port identity of one flow.
	FlowKey = flow.Key
	// FlowRecord is one exported sample.
	FlowRecord = flow.Record
	// FlowConfig tunes the analytics stage (rates, top-k, thresholds).
	FlowConfig = flow.Config
	// FlowAnalytics aggregates records into per-flow rate estimates,
	// BGP attribution and heavy-hitter events.
	FlowAnalytics = flow.Analytics
	// FlowStat is one tracked flow's estimated state.
	FlowStat = flow.FlowStat
	// FlowAttribution is the Loc-RIB join result for one flow.
	FlowAttribution = flow.Attribution
	// FlowEvent is one edge-triggered heavy-hitter notification.
	FlowEvent = flow.Event
	// FlowRebalancer demotes overloaded ports in balance groups on
	// heavy-hitter events and recompiles their inbound policy.
	FlowRebalancer = flow.Rebalancer
	// FlowBalanceGroup declares one auto-balanced inbound-TE workload.
	FlowBalanceGroup = flow.BalanceGroup
)

// NewFlowSampler builds a flow-record exporter for FlowTable.SetSampler.
var NewFlowSampler = flow.NewSampler

// NewFlowAnalytics builds the aggregation/join/detection stage over a
// sampler's record stream.
var NewFlowAnalytics = flow.NewAnalytics

// NewRIBResolver builds a TTL-snapshot Loc-RIB resolver for flow
// attribution.
var NewRIBResolver = flow.NewRIBResolver

// NewFlowRebalancer builds the heavy-hitter→policy feedback stage.
var NewFlowRebalancer = flow.NewRebalancer
