package stacks_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tracklog/internal/crashexplore"
	"tracklog/internal/crashexplore/stacks"
)

// TestGoldenReports regenerates the JSON report of each CI crash-explore
// window and byte-compares it with the committed one, which is what
// `crashexplore -json` printed for the same flags:
//
//	-stack trail -seed 3 -window 200 -faults latent=2,timeout=2,twindow=120,tdelay=2ms -fault-seed 11
//	-stack raid5 -seed 2 -window 40
//	-stack wal -seed 4 -window 30 -horizon 80ms
//
// Every probe, branch outcome and failure detail must stay the same under
// any change to how branches are made.
func TestGoldenReports(t *testing.T) {
	cases := []struct {
		file, stack, faults string
		faultSeed           uint64
		opts                crashexplore.Options
	}{
		{"trail-faults.json", "trail", "latent=2,timeout=2,twindow=120,tdelay=2ms", 11,
			crashexplore.Options{Seed: 3, Window: 200}},
		{"raid5.json", "raid5", "", 1, crashexplore.Options{Seed: 2, Window: 40}},
		{"wal.json", "wal", "", 1, crashexplore.Options{Seed: 4, Window: 30, Horizon: 80 * time.Millisecond}},
	}
	for _, c := range cases {
		t.Run(c.stack, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.file))
			if err != nil {
				t.Fatal(err)
			}
			st, err := stacks.ByName(c.stack, c.faults, c.faultSeed)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := crashexplore.New(st, c.opts).Run()
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := rep.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("report differs from testdata/%s:\n%s", c.file, got.Bytes())
			}
		})
	}
}
