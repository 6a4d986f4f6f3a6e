package attack

import (
	"fmt"
	"sort"
	"sync"
)

// The scenario registry is the single source of the attack list. The
// CLIs, the detection experiments and the campaign all iterate All()
// instead of hand-building their own slice, so adding a scenario is a
// one-file change: implement Scenario and Register it here (or from the
// file that defines it). Registration order is presentation order and
// is part of the output contract — the experiment tables are diffed
// byte-for-byte by CI, so built-ins keep their historical order and
// new scenarios append.

var (
	regMu     sync.Mutex
	registry  []Scenario
	regByName = make(map[string]Scenario)
)

// Register adds a scenario to the registry. It panics on an empty name
// or a duplicate — both programming errors in scenario definitions.
func Register(sc Scenario) {
	if sc == nil || sc.Name() == "" {
		panic("attack: Register needs a named scenario")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := regByName[sc.Name()]; dup {
		panic(fmt.Sprintf("attack: scenario %q registered twice", sc.Name()))
	}
	regByName[sc.Name()] = sc
	registry = append(registry, sc)
}

// All returns every registered scenario in registration order.
func All() []Scenario {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]Scenario, len(registry))
	copy(out, registry)
	return out
}

// Get finds a registered scenario by name.
func Get(name string) (Scenario, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	sc, ok := regByName[name]
	return sc, ok
}

// Names returns the registered scenario names in registration order.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, len(registry))
	for i, sc := range registry {
		out[i] = sc.Name()
	}
	return out
}

// SortedNames returns the registered scenario names sorted
// lexicographically — for error messages, where a stable, searchable
// order beats presentation order.
func SortedNames() []string {
	names := Names()
	sort.Strings(names)
	return names
}

func init() {
	// Built-ins, in the order the experiment tables have always printed.
	Register(SecureProbe{})
	Register(FirmwareTamper{})
	Register(FirmwareDowngrade{})
	Register(BusAttributeTamper{})
	Register(CodeInjection{})
	Register(ControlFlowHijack{})
	Register(CacheCovertChannel{})
	Register(VoltageGlitch{})
	Register(M2MMITM{})
	Register(BusFlood{})
	Register(LogWipe{})
}
