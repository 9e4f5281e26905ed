package core

import "sdx/internal/telemetry"

// RecompilePerPrefix is Recompile with the per-prefix lowering
// (compilePerPrefix) in place of the grouped pipeline. It installs
// through the same code a full pass does, so a later Recompile restores
// the grouped tables.
func RecompilePerPrefix(c *Controller) CompileReport {
	t := telemetry.StartTimer(c.m.compileNS)
	c.mu.Lock()
	comp := &compiler{parts: c.parts, view: c.rs, vnhs: c.vnhs}
	rep, retiring := c.installLocked(comp.compilePerPrefix(), t)
	c.mu.Unlock()
	if retiring {
		c.retireFastBand()
	}
	return rep
}
