package spacegen

import (
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/store"
)

// The fuzz targets drive the differential oracle from raw fuzzer inputs:
// a seed plus the five shape knobs, each one byte (normalized() maps any
// value onto a generable config, so there are no rejected inputs). Replay a
// crash outside the fuzzer with the printed `hundred fuzz -seed ...` line.
//
// Seed corpora live under testdata/fuzz/<FuzzName>/; run with e.g.
//
//	go test ./internal/spacegen -fuzz FuzzDifferential -fuzztime 30s

// fuzzConfig maps raw fuzzer bytes onto a generator config. The caps keep a
// single iteration fast: the knobs are maxima, and normalized() clamps the
// floors.
func fuzzConfig(seed uint64, families, states, mult, extra, sinks byte) Config {
	return Config{
		Seed:      seed,
		Families:  int(families%4) + 1,
		MaxStates: int(states%8) + 2,
		MaxMult:   int(mult%3) + 1,
		MaxExtra:  int(extra % 5),
		MaxSinks:  int(sinks % 4),
	}
}

// fuzzStateCap bounds the spaces a single fuzz iteration explores; larger
// draws are skipped, not failed. Each iteration explores the space ~12
// times (4 modes x 3 worker counts), so the cap trades per-space depth for
// fuzzer throughput.
const fuzzStateCap = 4_000

// FuzzDifferential fuzzes the positive contract: every generated space must
// pass the full cross-mode oracle against its planted truth.
func FuzzDifferential(f *testing.F) {
	f.Add(uint64(0), byte(1), byte(3), byte(1), byte(2), byte(1))
	f.Add(uint64(42), byte(2), byte(4), byte(2), byte(3), byte(2))
	f.Add(uint64(1234), byte(3), byte(5), byte(1), byte(0), byte(0))
	f.Fuzz(func(t *testing.T, seed uint64, families, states, mult, extra, sinks byte) {
		cfg := fuzzConfig(seed, families, states, mult, extra, sinks)
		sp := Generate(cfg)
		if sp.Truth.States > fuzzStateCap {
			t.Skip("space too large for one fuzz iteration")
		}
		if _, err := engine.Differential(sp.Spec()); err != nil {
			shrunk := Shrink(cfg, func(c Config) bool {
				s := Generate(c)
				if s.Truth.States > fuzzStateCap {
					return false
				}
				_, e := engine.Differential(s.Spec())
				return e != nil
			})
			t.Fatalf("oracle divergence on %s:\n  %v\n  replay: %s",
				sp.Describe(), err, ReplayLine(shrunk, ""))
		}
	})
}

// FuzzStoreBackends fuzzes the store-backend contract: on every generated
// space, full mode under the spill backend (tiny budget, tiny pages, so
// even small spaces cross the spill threshold) must be byte-identical to
// the mem backend at every worker count, and a bitstate sweep under forced
// fingerprint collisions must flag itself lossy and never intern more
// states than the planted reachable count.
func FuzzStoreBackends(f *testing.F) {
	f.Add(uint64(0), byte(1), byte(3), byte(1), byte(2), byte(1))
	f.Add(uint64(7), byte(2), byte(4), byte(2), byte(1), byte(0))
	f.Add(uint64(99), byte(3), byte(5), byte(1), byte(3), byte(2))
	f.Fuzz(func(t *testing.T, seed uint64, families, states, mult, extra, sinks byte) {
		cfg := fuzzConfig(seed, families, states, mult, extra, sinks)
		sp := Generate(cfg)
		if sp.Truth.States > fuzzStateCap {
			t.Skip("space too large for one fuzz iteration")
		}
		spec := sp.Spec()
		// Differential runs Stores in full mode only; the canon and POR
		// arms are FuzzDifferential's, on the same generator.
		spec.Canon, spec.Independent = nil, nil
		spec.Stores = []store.Config{{Kind: store.Spill, MaxBytes: 1 << 9, PageBits: 4}}
		if _, err := engine.Differential(spec); err != nil {
			t.Fatalf("mem vs spill diverged on %s:\n  %v\n  replay: %s",
				sp.Describe(), err, ReplayLine(cfg, ""))
		}
		res, err := engine.Explore(spec.Inits, spec.Expand, engine.Options{
			Store: store.Config{Kind: store.Bitstate, FingerprintBits: 10},
		})
		if err != nil {
			t.Fatalf("bitstate sweep failed on %s: %v", sp.Describe(), err)
		}
		if !res.Stats.Lossy {
			t.Fatalf("bitstate sweep not flagged lossy on %s", sp.Describe())
		}
		if len(res.States) > sp.Truth.States {
			t.Fatalf("bitstate overcounted on %s: %d states > planted truth %d\n  replay: %s",
				sp.Describe(), len(res.States), sp.Truth.States, ReplayLine(cfg, ""))
		}
	})
}

// FuzzChainDifferential fuzzes the deep-narrow chain topology: every
// generated braid must pass the full cross-mode, cross-worker-count oracle
// against its closed-form truth. The depth mapping keeps one iteration
// bounded while still reaching depths in the thousands.
func FuzzChainDifferential(f *testing.F) {
	f.Add(uint64(0), uint16(100), byte(1))
	f.Add(uint64(7), uint16(1200), byte(3))
	f.Add(uint64(42), uint16(3000), byte(2))
	f.Fuzz(func(t *testing.T, seed uint64, chain uint16, lanes byte) {
		cfg := Config{
			Seed:    seed,
			Chain:   int(chain%4000) + 2,
			MaxMult: int(lanes%4) + 1,
		}
		sp := Generate(cfg)
		if sp.Truth.States > 3*fuzzStateCap {
			// Chains are cheap per state (frontier ~= lanes), so the cap is
			// looser than the product topology's.
			t.Skip("braid too large for one fuzz iteration")
		}
		if _, err := engine.Differential(sp.Spec()); err != nil {
			shrunk := Shrink(cfg, func(c Config) bool {
				s := Generate(c)
				if s.Truth.States > 3*fuzzStateCap {
					return false
				}
				_, e := engine.Differential(s.Spec())
				return e != nil
			})
			t.Fatalf("chain oracle divergence on %s:\n  %v\n  replay: %s",
				sp.Describe(), err, ReplayLine(shrunk, ""))
		}
	})
}

// FuzzPoisonedCanon fuzzes the negative contract for the canonicalizer: on
// every space where the rotation poison is observable, the engine's canon
// falsifier must reject it with ErrCanonUnsound.
func FuzzPoisonedCanon(f *testing.F) {
	f.Add(uint64(3), byte(2), byte(3), byte(2), byte(1), byte(0))
	f.Add(uint64(17), byte(1), byte(2), byte(2), byte(0), byte(0))
	f.Fuzz(func(t *testing.T, seed uint64, families, states, mult, extra, sinks byte) {
		cfg := fuzzConfig(seed, families, states, mult, extra, sinks)
		sp := Generate(cfg)
		if sp.Truth.States > fuzzStateCap {
			t.Skip("space too large for one fuzz iteration")
		}
		poisoned, ok := sp.PoisonedCanon()
		if !ok {
			t.Skip("no multi-replica family; poison unobservable")
		}
		spec := sp.Spec()
		spec.Canon = poisoned
		spec.Truth = nil
		_, err := engine.Differential(spec)
		if err == nil {
			t.Fatalf("poisoned canon escaped the falsifier on %s\n  replay: %s",
				sp.Describe(), ReplayLine(cfg, "canon"))
		}
		if !errors.Is(err, engine.ErrCanonUnsound) {
			t.Fatalf("poisoned canon surfaced as %v, want ErrCanonUnsound\n  replay: %s",
				err, ReplayLine(cfg, "canon"))
		}
	})
}

// FuzzPoisonedIndependence fuzzes the negative contract for POR: on every
// space where the everything-commutes poison is observable, the POR
// falsifier must reject it with ErrPORUnsound.
func FuzzPoisonedIndependence(f *testing.F) {
	f.Add(uint64(1), byte(2), byte(4), byte(1), byte(3), byte(0))
	f.Add(uint64(11), byte(1), byte(3), byte(1), byte(4), byte(0))
	f.Fuzz(func(t *testing.T, seed uint64, families, states, mult, extra, sinks byte) {
		cfg := fuzzConfig(seed, families, states, mult, extra, sinks)
		sp := Generate(cfg)
		if sp.Truth.States > fuzzStateCap {
			t.Skip("space too large for one fuzz iteration")
		}
		poisoned, ok := sp.PoisonedIndependence()
		if !ok {
			t.Skip("no root branching; poison unobservable")
		}
		spec := sp.Spec()
		spec.Independent = AdaptIndependence(poisoned)
		spec.Truth = nil
		_, err := engine.Differential(spec)
		if err == nil {
			t.Fatalf("poisoned independence escaped the falsifier on %s\n  replay: %s",
				sp.Describe(), ReplayLine(cfg, "indep"))
		}
		if !errors.Is(err, engine.ErrPORUnsound) {
			t.Fatalf("poisoned independence surfaced as %v, want ErrPORUnsound\n  replay: %s",
				err, ReplayLine(cfg, "indep"))
		}
	})
}
