package verify

import (
	"dampi/internal/core"
	"dampi/mpi"
)

// ExplorerConfig exposes the exploration parameters Run derives from cfg, so
// tests can drive an engine exactly as Run would (with their own Runner).
func ExplorerConfig(cfg Config, program func(p *mpi.Proc) error) (core.ExplorerConfig, error) {
	return cfg.explorerConfig(program)
}
