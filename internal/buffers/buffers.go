// Package buffers models the gate-level components of buffer insertion: a
// buffer (repeater) characterized by the linear gate model of the paper
// (eq. 3) — input capacitance, intrinsic output resistance, intrinsic
// delay — plus a tolerable input noise margin and an inversion flag, and a
// Library of such buffers.
//
// The experimental library of Section V contains 5 inverting and 6
// non-inverting buffers of varying power levels; DefaultLibrary builds a
// synthetic library with that structure.
package buffers

import (
	"fmt"
	"math"
	"sort"

	"buffopt/internal/enc"
)

// Buffer is one repeater type. Delay through the buffer driving load C is
// T + R·C (eq. 3). Noise driven onto the wire beyond it is bounded by
// R·I(v) where I(v) is the total downstream coupling current (eq. 9); noise
// arriving at its input must stay below NoiseMargin for the stage to
// restore the signal.
type Buffer struct {
	Name        string
	Cin         float64 // input capacitance, F
	R           float64 // intrinsic (output) resistance, Ω
	T           float64 // intrinsic delay, s
	NoiseMargin float64 // tolerable peak noise at the input, V
	Inverting   bool    // true for an inverter
	// Weight is the buffer's cost in the Problem 3 objective — the Lillis
	// power function the paper adopts ("e.g., the total number of
	// buffers", Section I and [18]). Zero means 1, so the default
	// objective is the paper's buffer count; set Weight to a relative
	// area/power figure to minimize that instead.
	Weight int
}

// Cost returns the buffer's Problem 3 weight, treating the zero value
// as 1.
func (b Buffer) Cost() int {
	if b.Weight <= 0 {
		return 1
	}
	return b.Weight
}

// Delay returns the gate delay T + R·load (eq. 3).
func (b Buffer) Delay(load float64) float64 { return b.T + b.R*load }

// Valid reports whether the buffer's parameters are physically meaningful.
func (b Buffer) Valid() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"Cin", b.Cin}, {"R", b.R}, {"T", b.T}, {"NoiseMargin", b.NoiseMargin},
	} {
		if p.v < 0 || math.IsNaN(p.v) || math.IsInf(p.v, 0) {
			return fmt.Errorf("buffers: %s %s = %g invalid", b.Name, p.name, p.v)
		}
	}
	if b.R == 0 {
		return fmt.Errorf("buffers: %s has zero output resistance", b.Name)
	}
	return nil
}

// Library is an ordered collection of buffer types. Order is significant
// only for reporting; algorithms treat it as a set.
type Library struct {
	Buffers []Buffer
}

// Validate checks every buffer in the library.
func (l *Library) Validate() error {
	if len(l.Buffers) == 0 {
		return fmt.Errorf("buffers: empty library")
	}
	for _, b := range l.Buffers {
		if err := b.Valid(); err != nil {
			return err
		}
	}
	return nil
}

// AppendKey appends the library's identity bytes: the buffer count, then
// every buffer in library order — name, Cin, R, T, noise margin,
// inversion and weight. It is the one copy of the library field list
// both hashes that key on a library write: core.Problem.CanonicalHash
// and the subtree memo's key suffix.
func (l *Library) AppendKey(b []byte) []byte {
	b = enc.U64(b, uint64(len(l.Buffers)))
	for _, bb := range l.Buffers {
		b = enc.Str64(b, bb.Name)
		b = enc.F64(b, bb.Cin)
		b = enc.F64(b, bb.R)
		b = enc.F64(b, bb.T)
		b = enc.F64(b, bb.NoiseMargin)
		b = enc.Bool(b, bb.Inverting)
		b = enc.U64(b, uint64(int64(bb.Weight)))
	}
	return b
}

// MinResistance returns the buffer with the smallest output resistance.
// Theorem 1's spacing grows as driver resistance shrinks, so Algorithms 1
// and 2 obtain their optimal solutions using exactly this buffer (Section
// III-B). Ties break toward smaller input capacitance, then name order,
// so the choice is deterministic.
func (l *Library) MinResistance() (Buffer, error) {
	if len(l.Buffers) == 0 {
		return Buffer{}, fmt.Errorf("buffers: empty library")
	}
	best := l.Buffers[0]
	for _, b := range l.Buffers[1:] {
		switch {
		case b.R < best.R:
			best = b
		case b.R == best.R && b.Cin < best.Cin:
			best = b
		case b.R == best.R && b.Cin == best.Cin && b.Name < best.Name:
			best = b
		}
	}
	return best, nil
}

// NonInverting returns the sub-library of non-inverting buffers.
func (l *Library) NonInverting() *Library {
	out := &Library{}
	for _, b := range l.Buffers {
		if !b.Inverting {
			out.Buffers = append(out.Buffers, b)
		}
	}
	return out
}

// ByName returns the buffer with the given name.
func (l *Library) ByName(name string) (Buffer, bool) {
	for _, b := range l.Buffers {
		if b.Name == name {
			return b, true
		}
	}
	return Buffer{}, false
}

// Sorted returns the buffers ordered by descending drive strength
// (ascending output resistance), the conventional power-level ordering.
func (l *Library) Sorted() []Buffer {
	out := append([]Buffer(nil), l.Buffers...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].R != out[j].R {
			return out[i].R < out[j].R
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// DefaultLibrary builds the synthetic stand-in for the Section V library:
// 6 non-inverting buffers and 5 inverters spanning a range of power levels.
// Stronger buffers have lower output resistance and larger input
// capacitance, the usual sizing trade-off; every buffer tolerates the same
// input noise margin (0.8 V in the paper's technology).
//
// The absolute values target a late-1990s 0.25 µm-class process so that the
// experiments in Section V reproduce with the same qualitative shape:
// R from ~100 Ω (strongest) to ~1.5 kΩ (weakest), Cin from ~60 fF down to
// ~8 fF, intrinsic delays of tens of picoseconds.
func DefaultLibrary(noiseMargin float64) *Library {
	l := &Library{}
	// Non-inverting: two inverters in series internally, hence slightly
	// larger intrinsic delay at equal drive.
	nonInv := []struct {
		r, c, t float64
	}{
		{100, 60e-15, 60e-12},
		{150, 42e-15, 55e-12},
		{220, 30e-15, 50e-12},
		{330, 21e-15, 46e-12},
		{500, 14e-15, 42e-12},
		{750, 10e-15, 40e-12},
	}
	for i, p := range nonInv {
		l.Buffers = append(l.Buffers, Buffer{
			Name:        fmt.Sprintf("BUF_X%d", len(nonInv)-i),
			Cin:         p.c,
			R:           p.r,
			T:           p.t,
			NoiseMargin: noiseMargin,
			Inverting:   false,
		})
	}
	inv := []struct {
		r, c, t float64
	}{
		{130, 45e-15, 30e-12},
		{200, 32e-15, 27e-12},
		{320, 22e-15, 25e-12},
		{600, 13e-15, 22e-12},
		{1500, 8e-15, 20e-12},
	}
	for i, p := range inv {
		l.Buffers = append(l.Buffers, Buffer{
			Name:        fmt.Sprintf("INV_X%d", len(inv)-i),
			Cin:         p.c,
			R:           p.r,
			T:           p.t,
			NoiseMargin: noiseMargin,
			Inverting:   true,
		})
	}
	return l
}
