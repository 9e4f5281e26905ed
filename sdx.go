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
	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/fabric"
	"sdx/internal/iputil"
	"sdx/internal/pkt"
	"sdx/internal/rs"
	"sdx/internal/telemetry"
)

// The facade exports only what the examples, commands and the benchmark
// module use; everything else is reached through the internal packages.

// Core controller types.
type (
	// Controller is the SDX controller: route server, policy compiler,
	// fabric switch and ARP responder in one.
	Controller = core.Controller
	// ParticipantConfig declares one member AS.
	ParticipantConfig = core.ParticipantConfig
	// PhysicalPort is a border-router attachment to the fabric.
	PhysicalPort = core.PhysicalPort
	// Term is one policy term (match plus action).
	Term = core.Term
	// PeerUpdate pairs one BGP UPDATE with the participant it came from —
	// the unit of the batch-first ingestion API (Controller.ApplyBatch).
	PeerUpdate = rs.PeerUpdate
)

// Telemetry types (see internal/telemetry; served by sdxd's -metrics
// endpoint).
type (
	// Snapshot is a point-in-time copy of every metric in a registry.
	Snapshot = telemetry.Snapshot
	// Event is one traced control-plane event.
	Event = telemetry.Event
)

// CompilePolicy folds a policy install into a Recompile call, the only
// Recompile option.
var CompilePolicy = core.CompilePolicy

// Packet-model types.
type (
	// PortID identifies a fabric port.
	PortID = pkt.PortID
	// Addr is an IPv4 address.
	Addr = iputil.Addr
	// Prefix is an IPv4 CIDR prefix.
	Prefix = iputil.Prefix
	// Update is a BGP UPDATE message.
	Update = bgp.Update
	// PathAttrs are BGP path attributes.
	PathAttrs = bgp.PathAttrs
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

// Policy-term constructors (§2's application idioms).
var (
	// Fwd builds an application-specific-peering outbound term.
	Fwd = core.Fwd
	// FwdPort builds an inbound traffic-engineering term.
	FwdPort = core.FwdPort
	// FwdMiddlebox builds a middlebox-redirection outbound term.
	FwdMiddlebox = core.FwdMiddlebox
	// RewriteTerm builds a wide-area load-balancing rewrite term.
	RewriteTerm = core.RewriteTerm
)

// Address parsing helpers.
var (
	// MustParseAddr parses a dotted-quad IPv4 address, panicking on error.
	MustParseAddr = iputil.MustParseAddr
	// ParsePrefix parses CIDR notation.
	ParsePrefix = iputil.ParsePrefix
	// MustParsePrefix is ParsePrefix panicking on error.
	MustParsePrefix = iputil.MustParsePrefix
)

// Fabric addressing helpers.
var (
	// PortIP derives a fabric port's IXP-subnet IP.
	PortIP = core.PortIP
	// IsVMAC reports whether a MAC tags a forwarding equivalence class.
	IsVMAC = core.IsVMAC
)

// VNHSubnet is the pool virtual next hops are drawn from.
var VNHSubnet = core.VNHSubnet

// Multi-switch fabric (§4.1 "multiple physical switches").
type (
	// FabricTopology describes the switches, port placement and trunks.
	FabricTopology = fabric.Topology
	// FabricLink is one inter-switch trunk.
	FabricLink = fabric.Link
)

// NewFabric builds a multi-switch fabric; attach it to a controller with
// Controller.AddRuleMirror.
var NewFabric = fabric.New
