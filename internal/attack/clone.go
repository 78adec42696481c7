package attack

import (
	"repro/internal/channel"
	"repro/internal/runctx"
)

// This file implements channel.Cloneable for every attack channel: a
// deep copy of the full simulator state, so a calibrated channel can be
// snapshotted once and replayed byte-for-byte per transmission. Block
// layouts and their flattened instruction sequences are immutable after
// construction and are shared between clone and original; the bound run
// context is dropped (the next transmission re-binds its own).

// CloneChannel implements channel.Cloneable.
func (a *NonMT) CloneChannel() channel.BitChannel {
	c := *a
	c.core = a.core.Clone()
	c.rc = runctx.Ctx{}
	return &c
}

// CloneChannel implements channel.Cloneable.
func (s *SlowSwitch) CloneChannel() channel.BitChannel {
	c := *s
	c.core = s.core.Clone()
	c.rc = runctx.Ctx{}
	return &c
}

// CloneChannel implements channel.Cloneable. The clone's measurement
// buffer and callback are its own — the bit-history fields carry over by
// value, preserving the transition-noise state machine exactly.
func (a *MT) CloneChannel() channel.BitChannel {
	c := *a
	c.core = a.core.Clone()
	c.rc = runctx.Ctx{}
	c.measBuf = make([]float64, 0, cap(a.measBuf))
	c.measCb = func(v float64) { c.measBuf = append(c.measBuf, v) }
	return &c
}

// CloneChannel implements channel.Cloneable.
func (p *Power) CloneChannel() channel.BitChannel {
	c := *p
	c.core = p.core.Clone()
	c.rc = runctx.Ctx{}
	return &c
}
