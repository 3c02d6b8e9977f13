package core

import (
	"testing"
	"unsafe"

	"bpred/internal/cacheline"
)

// span is a byte range [lo, hi) of one predictor's per-branch-written
// memory.
type span struct{ lo, hi uintptr }

func sliceSpan[T any](s []T) span {
	var zero T
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return span{lo, lo + uintptr(len(s))*unsafe.Sizeof(zero)}
}

// fieldSpan covers the struct fields from first through last.
func fieldSpan[A, B any](first *A, last *B) span {
	var zero B
	return span{uintptr(unsafe.Pointer(first)), uintptr(unsafe.Pointer(last)) + unsafe.Sizeof(zero)}
}

// hotSpans lists the memory a predictor writes on every branch: its
// counter tables and, for the modern families, the struct fields that
// carry history and the Predict-to-Update stash.
func hotSpans(t *testing.T, p Predictor) []span {
	switch p := p.(type) {
	case *TwoLevel:
		state, _, _ := p.Table().Raw()
		return []span{sliceSpan(state)}
	case *TAGE:
		s := &p.tab
		return []span{
			sliceSpan(s.base), sliceSpan(s.tags), sliceSpan(s.ctrs), sliceSpan(s.us),
			fieldSpan(&p.tab, &p.tag),
		}
	case *McFarling:
		return []span{
			sliceSpan(p.gshare), sliceSpan(p.bimodal), sliceSpan(p.chooser),
			fieldSpan(&p.ghr, &p.pred),
		}
	case *Perceptron:
		return []span{sliceSpan(p.weights), fieldSpan(&p.ghr, &p.pred)}
	}
	t.Fatalf("no hot-memory map for %T", p)
	return nil
}

// TestNoFalseSharing builds the consecutive configurations of one
// sweep tier per family, as a sweep does before its workers take them
// in stride, and checks that no two predictors share a cache line of
// memory they write per branch: on different cores, such a line would
// bounce between the caches on every access.
func TestNoFalseSharing(t *testing.T) {
	const tier = 4
	for _, s := range []Scheme{SchemeGShare, SchemeGAs, SchemePath, SchemeTAGE, SchemeTournament, SchemePerceptron} {
		t.Run(s.String(), func(t *testing.T) {
			owner := map[uintptr]int{} // cache line -> config
			for r := 0; r <= tier; r++ {
				p := Config{Scheme: s, RowBits: r, ColBits: tier - r}.MustBuild()
				for _, sp := range hotSpans(t, p) {
					if sp.hi <= sp.lo {
						continue
					}
					for line := sp.lo / cacheline.Size; line <= (sp.hi-1)/cacheline.Size; line++ {
						if o, ok := owner[line]; ok && o != r {
							t.Fatalf("configs RowBits %d and %d share cache line %#x", o, r, line*cacheline.Size)
						}
						owner[line] = r
					}
				}
			}
		})
	}
}
