package tv

import (
	"testing"

	"p4all/internal/apps"
	"p4all/internal/modules"
	"p4all/internal/pisa"
)

// BenchmarkCertify measures one full validation (symbolic equivalence
// over every path plus the resource audit) of a solved compile: the
// CMS module (512 paths), and the two suite apps whose compiles are
// certify-bound on the end-to-end benchmark's 7/4 Mb target,
// SketchLearn (256 paths) and ConQuest (64 paths). It is wired into
// the CI benchmark gate (cmd/benchgate) on both ns/op and allocs/op: a
// change that blows up the path count, the per-path symbolic work or
// the validator's garbage shows up here, not as a silent CI slowdown.
func BenchmarkCertify(b *testing.B) {
	for _, c := range []struct {
		name, src string
		target    pisa.Target
	}{
		{"cms", modules.StandaloneCMS(), pisa.EvalTarget(pisa.Mb / 4)},
		{"sketchlearn", apps.SketchLearn().Source, pisa.EvalTarget(7 * pisa.Mb / 4)},
		{"conquest", apps.ConQuest().Source, pisa.EvalTarget(7 * pisa.Mb / 4)},
	} {
		b.Run(c.name, func(b *testing.B) {
			u, layout, prog := compileFor(b, c.src, c.target)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cert := Validate(u, layout, prog, Options{Name: c.name})
				if !cert.Proved() {
					b.Fatalf("benchmark compile no longer certifies: %s", cert.Summary())
				}
			}
		})
	}
}
