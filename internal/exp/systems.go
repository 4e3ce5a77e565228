package exp

import (
	"fmt"
	"strings"

	"moca/internal/mem"
	"moca/internal/sim"
)

// SystemByName resolves the CLI-style system names moca-sim accepts
// (ddr3, rl, hbm, lp, heter-app, moca, migrate, with an optional
// @config2/@config3 capacity suffix) to a SystemDef. The returned Name is
// the simulator config name ("homogen-ddr3", "moca", ...), so a run
// executed through the Runner is byte-identical — including Result.Name —
// to the same run executed by moca-sim locally. A heterogeneous system's
// config2/config3 suffix goes into Variant instead, so the Runner never
// answers moca@config2 with a memoized moca result. moca-served resolves
// SUBMIT frames through this table.
func SystemByName(name string) (SystemDef, error) {
	base, sel, variant := name, sim.Config1, ""
	if i := strings.Index(name, "@"); i >= 0 {
		base = name[:i]
		switch name[i+1:] {
		case "config1":
			sel = sim.Config1
		case "config2":
			sel, variant = sim.Config2, "@config2"
		case "config3":
			sel, variant = sim.Config3, "@config3"
		default:
			return SystemDef{}, fmt.Errorf("exp: unknown capacity config %q", name[i+1:])
		}
	}
	switch base {
	case "ddr3":
		return SystemDef{Name: "homogen-ddr3", Modules: sim.Homogeneous(mem.DDR3), Policy: sim.PolicyFixed}, nil
	case "rl", "rldram":
		return SystemDef{Name: "homogen-rl", Modules: sim.Homogeneous(mem.RLDRAM), Policy: sim.PolicyFixed}, nil
	case "hbm":
		return SystemDef{Name: "homogen-hbm", Modules: sim.Homogeneous(mem.HBM), Policy: sim.PolicyFixed}, nil
	case "lp", "lpddr2":
		return SystemDef{Name: "homogen-lp", Modules: sim.Homogeneous(mem.LPDDR2), Policy: sim.PolicyFixed}, nil
	case "heter-app":
		return SystemDef{Name: "heter-app", Modules: sim.Heterogeneous(sel), Policy: sim.PolicyAppLevel, Variant: variant}, nil
	case "moca":
		return SystemDef{Name: "moca", Modules: sim.Heterogeneous(sel), Policy: sim.PolicyMOCA, Variant: variant}, nil
	case "migrate":
		return SystemDef{Name: "migrate", Modules: sim.Heterogeneous(sel), Policy: sim.PolicyMigrate, Variant: variant}, nil
	default:
		return SystemDef{}, fmt.Errorf("exp: unknown system %q", name)
	}
}
