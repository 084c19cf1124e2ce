// LeNet: the Table III CNN benchmark — the full LeNet-5 pipeline
// (1@32x32 -> C1 6@28x28 -> S1 6@14x14 -> C2 16@10x10 -> S2 16@5x5 ->
// F120 -> F84 -> 10) lowered to Cambricon assembly and executed on the
// simulated accelerator.
//
// LeNet-5 is the paper's stress case for code density (Section V-B2: "the
// main body of CNN is a deeply nested loop requiring many individual scalar
// operations"). The lowering here flattens that nest: each convolution
// computes a whole output row with two MMVs over one contiguous input band
// (even and odd output positions), against banded weight matrices the
// program builds on chip with one MLOAD and a loop of MMOVEs, and 2x2
// pooling takes two VGTMs per pooled row. No loop is nested in another.
// The example prints the statistics of that structure.
//
//	go run ./examples/lenet [-seed 7]
package main

import (
	"flag"
	"fmt"
	"log"

	"cambricon"
	"cambricon/internal/fixed"
)

func main() {
	seed := flag.Uint64("seed", 7, "weight/input generation seed")
	flag.Parse()

	prog, err := cambricon.GenerateBenchmark("CNN", *seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LeNet-5 lowered to %d static Cambricon instructions\n", prog.Len())

	m, err := cambricon.NewMachine(cambricon.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	stats, err := prog.Execute(m)
	if err != nil {
		log.Fatal(err)
	}

	res := prog.Results[0]
	got, err := m.ReadMainNums(res.Addr, res.N)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n  class    accelerator    reference")
	best, bestRef := 0, 0
	vals := fixed.Floats(got)
	for i, v := range vals {
		fmt.Printf("  %4d     %10.6f   %10.6f\n", i, v, res.Want[i])
		if v > vals[best] {
			best = i
		}
		if res.Want[i] > res.Want[bestRef] {
			bestRef = i
		}
	}
	fmt.Printf("\npredicted class %d (reference predicts %d)\n", best, bestRef)

	fmt.Printf("\ndynamic execution (the Section V-B2/V-B3 story):\n")
	fmt.Printf("  dynamic instructions: %d (static %d: flat loops, none nested)\n",
		stats.Instructions, prog.Len())
	fmt.Printf("  taken branches:       %d\n", stats.BranchesTaken)
	fmt.Printf("  MAC operations:       %d (banded matrices' zero products included)\n", stats.MACOps)
	fmt.Printf("  cycles:               %d (%.1f us at 1 GHz)\n",
		stats.Cycles, stats.Seconds(1e9)*1e6)
	vu, mu := stats.Utilization()
	fmt.Printf("  vector/matrix unit utilization: %.1f%% / %.1f%%\n", 100*vu, 100*mu)
}
