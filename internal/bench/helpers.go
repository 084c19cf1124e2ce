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
// (pooled and snapshot-restored unless the suite is cold) and checks its
// outputs like every run of the suite's own programs.
func runProgram(s *Suite, p *codegen.Program) (sim.Stats, error) {
	b, err := newBenchmark(p)
	if err != nil {
		return sim.Stats{}, err
	}
	m, pooled, err := s.preparedMachine(context.Background(), b, s.Config.MaxCycles)
	if err != nil {
		return sim.Stats{}, err
	}
	defer s.releaseMachine(m, pooled)
	st, _, err := b.runChecked(context.Background(), m)
	return st, err
}
