// Kernel micro-benchmarks: batch retrieval versus the scalar resolve
// path. Run with
//
//	go test ./internal/labeltree -bench Color -benchtime 2s
//
// On the served path, pmsbench's kernel.ns_per_node (batch-color) reads
// the kernel's cost per node.
package labeltree

import (
	"math/rand"
	"testing"

	"repro/internal/tree"
)

func benchMapping(b *testing.B, levels, modules int, opts Options) (*Mapping, []tree.Node) {
	b.Helper()
	lt, err := NewWithOptions(levels, modules, opts)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	nodes := make([]tree.Node, 4096)
	space := tree.SubtreeSize(levels)
	for i := range nodes {
		nodes[i] = tree.FromHeapIndex(rng.Int63n(space))
	}
	return lt, nodes
}

func BenchmarkColorBatchBandCyclic(b *testing.B) {
	lt, nodes := benchMapping(b, 20, 1024, Options{Macro: BandCyclic})
	dst := make([]int, len(nodes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lt.ColorBatch(dst, nodes)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(nodes)), "ns/node")
}

func BenchmarkColorBatchBalanced(b *testing.B) {
	lt, nodes := benchMapping(b, 20, 1024, Options{Macro: Balanced})
	dst := make([]int, len(nodes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lt.ColorBatch(dst, nodes)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(nodes)), "ns/node")
}

func BenchmarkColorScalar(b *testing.B) {
	lt, nodes := benchMapping(b, 20, 1024, Options{Macro: BandCyclic})
	dst := make([]int, len(nodes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, n := range nodes {
			dst[j] = lt.Color(n)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(nodes)), "ns/node")
}
