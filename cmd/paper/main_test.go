package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestDeterministicSectionsGolden regenerates every section that does
// not depend on wall-clock timing at -quick sizes with seed 1 and
// compares it byte for byte with testdata/<file>. No test rewrites
// those files: a diff here means a change moved a paper number.
func TestDeterministicSectionsGolden(t *testing.T) {
	s := sizesFor(true, 1)
	for _, sec := range sections {
		if sec.timed {
			continue
		}
		t.Run(sec.file, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", sec.file))
			if err != nil {
				t.Fatal(err)
			}
			tabs, err := sec.build(s)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := writeTables(&got, tabs); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s differs from testdata:\ngot:\n%s\nwant:\n%s", sec.file, got.Bytes(), want)
			}
		})
	}
}
