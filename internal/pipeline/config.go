package pipeline

import (
	"fmt"
	"slices"
	"sort"
)

// Option mutates a Config under construction. Options are applied in
// order by NewConfig after the profile/level are set and before
// validation, so every option's effect is checked.
type Option func(*Config)

// Disable marks pass toggles to skip — the Ox-dy mechanism. Repeated
// calls accumulate. NewConfig rejects names that are not enabled at the
// configuration's profile and level.
func Disable(names ...string) Option {
	return func(c *Config) {
		if c.Disabled == nil {
			c.Disabled = make(map[string]bool, len(names))
		}
		for _, n := range names {
			c.Disabled[n] = true
		}
	}
}

// DisableSet copies an existing disabled set (e.g. a tuner candidate's
// pass subset) into the configuration. False entries are dropped so the
// resulting Config fingerprints identically however the set was built.
func DisableSet(set map[string]bool) Option {
	return func(c *Config) {
		for n, off := range set {
			if !off {
				continue
			}
			if c.Disabled == nil {
				c.Disabled = map[string]bool{}
			}
			c.Disabled[n] = true
		}
	}
}

// WithProfiling sets -fdebug-info-for-profiling behavior.
func WithProfiling() Option {
	return func(c *Config) { c.ForProfiling = true }
}

// WithSalvage overrides the profile's debug salvage policy.
func WithSalvage(on bool) Option {
	return func(c *Config) { v := on; c.SalvageOverride = &v }
}

// WithOptimistic overrides the profile's location-range policy.
func WithOptimistic(on bool) Option {
	return func(c *Config) { v := on; c.OptimisticOverride = &v }
}

// NewConfig is the validating constructor for Config and the only
// supported way to build one outside this package. It rejects unknown
// profiles, levels the profile does not define, and disabled-pass names
// that are not toggles of the profile/level pipeline — the mistakes a
// raw struct literal lets through silently (a misspelled pass name
// "disables" nothing and corrupts every fingerprint-keyed comparison
// against the config it aliases).
func NewConfig(p Profile, level string, opts ...Option) (Config, error) {
	cfg := Config{Profile: p, Level: level}
	switch p {
	case GCC, Clang:
	default:
		return Config{}, fmt.Errorf("pipeline: unknown profile %q", p)
	}
	if !validLevel(p, level) {
		return Config{}, fmt.Errorf("pipeline: profile %s has no level %q (have O0, %v)",
			p, level, Levels(p))
	}
	for _, o := range opts {
		o(&cfg)
	}
	if len(cfg.Disabled) > 0 {
		toggles := EnabledPasses(p, level)
		var bad []string
		for n := range cfg.Disabled {
			// The called-once inliner is a fine-grained gcc knob consulted
			// by configureInliner but absent from the pipeline tables.
			knob := n == "inline-fncs-called-once" && p == GCC && level != "O0" && level != "Og"
			if !knob && !slices.Contains(toggles, n) {
				bad = append(bad, n)
			}
		}
		if len(bad) > 0 {
			sort.Strings(bad)
			return Config{}, fmt.Errorf("pipeline: %s-%s has no pass toggle %v",
				p, level, bad)
		}
	}
	return cfg, nil
}

// MustConfig is NewConfig that panics on error, for static
// configurations whose validity is part of the program text.
func MustConfig(p Profile, level string, opts ...Option) Config {
	cfg, err := NewConfig(p, level, opts...)
	if err != nil {
		panic(err)
	}
	return cfg
}

func validLevel(p Profile, level string) bool {
	if level == "O0" {
		return true
	}
	for _, l := range Levels(p) {
		if l == level {
			return true
		}
	}
	return false
}
