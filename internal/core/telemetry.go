package core

import (
	"sdx/internal/telemetry"
)

// WithTelemetry directs the controller's metrics into reg instead of the
// private registry every controller otherwise creates. Injecting a shared
// registry lets several components (controller, BGP listener, daemon)
// publish into one snapshot.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(c *Controller) { c.metrics = reg }
}

// WithTracer directs the controller's event trace into tr instead of the
// private bounded tracer every controller otherwise creates.
func WithTracer(tr *telemetry.Tracer) Option {
	return func(c *Controller) { c.tracer = tr }
}

// Metrics returns the controller's registry (never nil).
func (c *Controller) Metrics() *telemetry.Registry { return c.metrics }

// Tracer returns the controller's event tracer (never nil).
func (c *Controller) Tracer() *telemetry.Tracer { return c.tracer }

// ctrlMetrics holds the controller's metric handles, resolved once at
// construction so hot paths never touch the registry's name map.
type ctrlMetrics struct {
	updatesIn *telemetry.Counter   // controller.updates_in
	updateNS  *telemetry.Histogram // controller.update_ns
	dirtySet  *telemetry.Histogram // controller.dirty_set

	fastCompiles *telemetry.Counter   // controller.fast_compiles
	fullCompiles *telemetry.Counter   // controller.full_compiles
	compileNS    *telemetry.Histogram // controller.compile_ns

	rulesInstalled *telemetry.Counter // controller.rules_installed
	arpReplies     *telemetry.Counter // controller.arp_replies

	groups        *telemetry.Gauge // controller.groups
	band1         *telemetry.Gauge // controller.rules_band1
	band2         *telemetry.Gauge // controller.rules_band2
	vnhsAllocated *telemetry.Gauge // controller.vnhs_allocated
}

// initTelemetry resolves the metric handles and registers snapshot-time
// size gauges for structures that already track their own sizes. Called
// once from NewController, after c.metrics and c.sw exist.
func (c *Controller) initTelemetry() {
	reg := c.metrics
	//lint:ignore riblock one-time init called from NewController before the controller is shared
	c.m = ctrlMetrics{
		updatesIn:      reg.Counter("controller.updates_in"),
		updateNS:       reg.Histogram("controller.update_ns"),
		dirtySet:       reg.Histogram("controller.dirty_set"),
		fastCompiles:   reg.Counter("controller.fast_compiles"),
		fullCompiles:   reg.Counter("controller.full_compiles"),
		compileNS:      reg.Histogram("controller.compile_ns"),
		rulesInstalled: reg.Counter("controller.rules_installed"),
		arpReplies:     reg.Counter("controller.arp_replies"),
		groups:         reg.Gauge("controller.groups"),
		band1:          reg.Gauge("controller.rules_band1"),
		band2:          reg.Gauge("controller.rules_band2"),
		vnhsAllocated:  reg.Gauge("controller.vnhs_allocated"),
	}
	sw := c.sw
	reg.RegisterGaugeFunc("dataplane.rules", func() int64 {
		return int64(sw.Table().Len())
	})
	reg.RegisterGaugeFunc("dataplane.misses", func() int64 {
		return int64(sw.Table().Misses())
	})
	reg.RegisterGaugeFunc("dataplane.packet_ins", func() int64 {
		return int64(sw.PacketIns())
	})
	reg.RegisterGaugeFunc("dataplane.drops", func() int64 {
		return int64(sw.Drops())
	})
	reg.RegisterGaugeFunc("dataplane.cache_hits", func() int64 {
		return int64(sw.Table().Stats().Hits)
	})
	reg.RegisterGaugeFunc("dataplane.cache_misses", func() int64 {
		return int64(sw.Table().Stats().Misses)
	})
	reg.RegisterGaugeFunc("dataplane.cache_entries", func() int64 {
		return int64(sw.Table().Stats().Entries)
	})
	reg.RegisterGaugeFunc("dataplane.engine_builds", func() int64 {
		return int64(sw.Table().EngineBuilds())
	})
	reg.RegisterGaugeFunc("controller.fast_rules", func() int64 {
		return int64(c.FastRules())
	})
}
