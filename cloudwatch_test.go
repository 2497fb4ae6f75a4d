package cloudwatch

import (
	"reflect"
	"testing"
)

// TestYearOrSeedEditIsThatStudy edits one study parameter of a
// QuickStudy config in place. A config holds each parameter once, so
// the edited config must be the config of the edited study, and it
// must generate that study: the same records under the same titles.
func TestYearOrSeedEditIsThatStudy(t *testing.T) {
	cases := []struct {
		name string
		edit func(*StudyConfig)
		want StudyConfig
	}{
		{"year", func(c *StudyConfig) { c.Year = 2020 }, QuickStudy(42, 2020)},
		{"seed", func(c *StudyConfig) { c.Seed = 7 }, QuickStudy(7, 2021)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := QuickStudy(42, 2021)
			tc.edit(&cfg)
			if !reflect.DeepEqual(cfg, tc.want) {
				t.Fatalf("edited config %+v\nwant %+v", cfg, tc.want)
			}
			if testing.Short() {
				return
			}
			got, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Run(tc.want)
			if err != nil {
				t.Fatal(err)
			}
			if got.NumRecords() != want.NumRecords() {
				t.Errorf("edited study collected %d records, want %d", got.NumRecords(), want.NumRecords())
			}
			if g, w := got.Table2().Render(), want.Table2().Render(); g != w {
				t.Errorf("edited study renders Table 2 as\n%s\nwant\n%s", g, w)
			}
		})
	}
}
