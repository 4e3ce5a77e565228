package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"moca/internal/cache"
	"moca/internal/classify"
	"moca/internal/core"
	"moca/internal/obs"
	"moca/internal/sim"
	"moca/internal/workload"
)

// Cache keys content-address work by everything that determines its
// outcome, serialized as canonical JSON (encoding/json sorts map keys, so
// identical inputs always produce identical bytes). The simulator version
// salt is deliberately NOT part of the key: it lives in the on-disk
// envelope instead, so a salt bump lands on the same file and evicts the
// stale entry rather than stranding it forever (see RunCache).

// resultKey is the canonical identity of one measured simulation: the
// fully resolved system configuration (minus presentation-only fields),
// the per-core process specs carrying the instrumentation fingerprint
// (ClassMap + AppClass), and the windows.
type resultKey struct {
	Kind    string         `json:"kind"` // "result"
	Cfg     sim.Config     `json:"cfg"`
	Procs   []sim.ProcSpec `json:"procs"`
	Measure uint64         `json:"measure"`
	Window  uint64         `json:"profile_window"`
	// Metrics records whether the run carries an obs snapshot: a cached
	// metrics-off result must not satisfy a metrics-on request.
	Metrics bool `json:"metrics"`
}

// ResultCacheKey returns the canonical persistent-cache key for one
// simulation. Presentation-only fields (Config.Name) and non-data fields
// (Config.Obs sinks, ProcSpec.Stream) are excluded; everything else that
// shapes the run — modules, policy, chains, thresholds, scheduler knobs,
// app specs, class maps, windows — is included.
func ResultCacheKey(cfg sim.Config, procs []sim.ProcSpec, measure, profileWindow uint64) (string, error) {
	kc := cfg
	kc.Name = ""
	kc.Obs = obs.Options{}
	// The fast path is an execution strategy, not a model parameter: fast
	// and slow execution produce the same bytes (the golden suite and
	// difftest prove it), so a slow-path run may serve a fast-path request
	// and vice versa.
	kc.NoFastpath = false
	kps := make([]sim.ProcSpec, len(procs))
	for i, p := range procs {
		p.Stream = nil
		kps[i] = p
	}
	data, err := json.Marshal(resultKey{
		Kind:    "result",
		Cfg:     kc,
		Procs:   kps,
		Measure: measure,
		Window:  profileWindow,
		Metrics: cfg.Obs.Metrics,
	})
	if err != nil {
		return "", fmt.Errorf("exp: serializing result cache key: %w", err)
	}
	return string(data), nil
}

// profileKey is the canonical identity of one offline profiling run: the
// application spec plus every Framework knob that shapes the profile.
type profileKey struct {
	Kind        string               `json:"kind"` // "profile"
	App         workload.AppSpec     `json:"app"`
	ObjectThr   classify.Thresholds  `json:"object_thresholds"`
	AppThr      classify.Thresholds  `json:"app_thresholds"`
	NamingDepth int                  `json:"naming_depth"`
	Window      uint64               `json:"profile_window"`
	Modules     []sim.ModuleSpec     `json:"modules"`
	Prefetch    cache.PrefetchConfig `json:"prefetch"`
}

// profileCacheKey returns the canonical persistent-cache key for one
// application's offline profile under the framework's settings.
func profileCacheKey(fw *core.Framework, spec workload.AppSpec) (string, error) {
	data, err := json.Marshal(profileKey{
		Kind:        "profile",
		App:         spec,
		ObjectThr:   fw.ObjectThresholds,
		AppThr:      fw.AppThresholds,
		NamingDepth: fw.NamingDepth,
		Window:      fw.ProfileWindow,
		Modules:     fw.ProfileModules,
		Prefetch:    fw.Prefetch,
	})
	if err != nil {
		return "", fmt.Errorf("exp: serializing profile cache key: %w", err)
	}
	return string(data), nil
}

// hashKey content-addresses a canonical key for use as a filename.
func hashKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}
