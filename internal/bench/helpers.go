package bench

import (
	"context"

	"cambricon/internal/codegen"
	"cambricon/internal/sim"
)

// codegenLogistic builds the Section VI prediction-phase program.
func codegenLogistic(seed uint64) (*codegen.Program, error) {
	return codegen.GenLogistic(seed)
}

// codegenLogisticTraining builds the Section VI training-phase program.
func codegenLogisticTraining(seed uint64) (*codegen.Program, error) {
	return codegen.GenLogisticTraining(seed)
}

// runProgram executes a generated program on a suite-configured machine
// (pooled and snapshot-restored unless the suite is cold), verifying its
// expectations.
func runProgram(s *Suite, p *codegen.Program) (sim.Stats, error) {
	cfg := s.Config
	cfg.Seed = s.Seed ^ 0xcafe
	m, pooled, err := s.preparedMachine(context.Background(), p, cfg)
	if err != nil {
		return sim.Stats{}, err
	}
	defer s.releaseMachine(m, pooled)
	return p.ExecutePreparedContext(context.Background(), m)
}
