package cloudwatch

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"cloudwatch/internal/core"
)

// goldenRenders pins the SHA-256 of every rendered experiment of a few
// QuickStudy configurations. The equivalence suites compare paths of
// one build against each other, so a change that moves every path the
// same way passes them all; these digests catch it. A deliberate
// change to rendered output updates them (the failure message prints
// the new digests) and says so in CHANGES.md.
var goldenRenders = map[string]map[string]string{
	"seed42-2020-baseline": {
		"table1":  "55fea6851265e2e183bd3147ed98e9c9e350b73cf58a4e106cc984dbb336cf4e",
		"table2":  "2ce14d9c6f18237dbe0290b2b9d919d19e730400fd89eec124038379706d4f41",
		"table3":  "1aacd368a611ccc00967a51eca21a45c94e9d22fd893d4dbecab1d16beb2ce31",
		"table4":  "c0638218041e975b802157f2b79d5f6a0ef7b632678d5085ab78ae79b93451e3",
		"table5":  "15a69d3dbe54699bb1faed4d38cee2e5eaef38a8117d9f7f80e3bb54b57d101c",
		"table6":  "70d0756326658f136cd550ea881571ddc7eeede2cdb01b00d20ce7148fc413d2",
		"table7":  "b1708ab19b82cfdff3c33987310a66c4dc515ed71bdddfa3bee06bb3babc3adf",
		"table8":  "1d51e2467e5b4f3fea1a799338d18c0f7c92becb5a2d08ed3f8c542c6d4f25fc",
		"table9":  "8a8bacb7d7e5873c3d444c3555cce5a9a298641965fc14378b0638030fe91ff5",
		"table10": "2eb882829187aacfb6d98785c984d501569b4970b123e30450ab156b6659270c",
		"table11": "f526610732e430c3a2d29ee04975601c996810092abcbb44144c09236ca50f0b",
		"figure1": "eb79e481e0f15abf8340b73d4a2c3a9179ba80a78c923a61d0ac84208e2d1ef6",
	},
	"seed42-2021-baseline": {
		"table1":  "93a1ea859d7b87ed0f33e7649832c99998018890273a2ec4a5fa124e2326d917",
		"table2":  "a441a0797ac3736f99ddad72466ef7ef2acb2fc7972b8f9ce7c8ff8dddde51f4",
		"table3":  "1aacd368a611ccc00967a51eca21a45c94e9d22fd893d4dbecab1d16beb2ce31",
		"table4":  "f496a33846be386126c517529fd4eb7b3a4e26e7b0a61c3d4d36f79a2a32fd37",
		"table5":  "1ec5843d53a6ec37d49e03e772ee7390f36deccb87c11ba450b1728aca5fd7c4",
		"table6":  "70d0756326658f136cd550ea881571ddc7eeede2cdb01b00d20ce7148fc413d2",
		"table7":  "d98e7dcf72dc5416b16eec9c5dee48183f2d53303586d57bc3df199c3fea580e",
		"table8":  "e3edc80a34a0161e269b74c77ca4c452586232216a8d058a63eddaa096f9de2c",
		"table9":  "3bdde2c8a27e2715ecc5f8584549bada831db81b39380cce7655bda2c3b2eb7b",
		"table10": "06c923a5a0dc4b567658f815ec963e77a0d2efb92f83a37bd4411ba475da282a",
		"table11": "f526610732e430c3a2d29ee04975601c996810092abcbb44144c09236ca50f0b",
		"figure1": "eb79e481e0f15abf8340b73d4a2c3a9179ba80a78c923a61d0ac84208e2d1ef6",
	},
	"seed42-2022-baseline": {
		"table1":  "46bc4d9b3da5416e668ed7efa0da4195c4e35aa3710566eea3328902e18a4be4",
		"table2":  "a60db68c38f7cedc807fc8ecd2c8ee9e822f16afa32fd322cc839db324448cc9",
		"table3":  "8bb4ee734831fdba7861ff042b59704e8183d8a091c5ac9848fc5163b7962857",
		"table4":  "da05a6501875fa5a35c6d4a239c615e60f5a0bdee7cf9403d975aded290615f3",
		"table5":  "c2d8987226c22b0a294e01972d5bc3ab521e777d52ae830a4581a366b12f906e",
		"table6":  "70d0756326658f136cd550ea881571ddc7eeede2cdb01b00d20ce7148fc413d2",
		"table7":  "1ad04206b06638f66c07867646cd295017f55c96757029d6d02ec5b98806ce20",
		"table8":  "c7bfb67f3582339c7c59adace82365cb9c224f48e63ffd7e822ab1b349fdcce3",
		"table9":  "4d25b9c5ac47cfb30bbcc184bbde27b29f662b02ac4a9f9aa1c2088795b417f2",
		"table10": "a095138196bdd4940187ca40d417691c80175f4bd56609f2c716046e3db8f5e2",
		"table11": "df33a61ddd7f2448aec2180b068077e30897eff7d1b07eb6cd9fc0a7937a202a",
		"figure1": "5acd5a644f34cc0a01a7a822f619d6b3355e56b2274baab1c1f34dc58a81eb3d",
	},
	"seed42-2021-stealth": {
		"table1":  "faee8610642709d37c3617734c3f679c4fd40195d4f40a49a9a3e8e5034da622",
		"table2":  "53e10fdf445d8c06b02530bc9c4ef7ab65daefae490aaeb77431f4ad2a19e7b3",
		"table3":  "c80fe92c36bcf36ff341c06a03052d7b588585d4d15616f13c44bcb64f43065d",
		"table4":  "d8ed4d1adf53082a26379f22f61eda7370764d096a1386e97f758bc9280d6167",
		"table5":  "5e09f72545bde61791f80821a6d494d701cbe3c10a8263cf5359e03b02a376c0",
		"table6":  "70d0756326658f136cd550ea881571ddc7eeede2cdb01b00d20ce7148fc413d2",
		"table7":  "250248e112d8acb3ed886f00618b80b23d80b238c3449b24f9db9d98feef0bc1",
		"table8":  "c953fc24ed9e9c4f0c5b0fee26e95b8b92a29ea36e4424bf494511606e5419a9",
		"table9":  "55b863d56fb16a676892964a4f165f087f823316dfabfbcf35bff650a121dcd0",
		"table10": "e62605af660798dfc482ddb186c02c6c1b0d57e875eb614eac7f5e13643b5abc",
		"table11": "d2a74f8c3ec5d5b04169ecf727a6d39e344a801c8754cdcfbdad90a559075981",
		"figure1": "b218cb38c122273e82820a874768b146c72747629d5715020cad078811a4d1bc",
	},
}

func TestGoldenRenderDigests(t *testing.T) {
	cases := []struct {
		year     int
		scenario string
	}{
		{2020, BaselineScenario},
		{2021, BaselineScenario},
		{2022, BaselineScenario},
		{2021, "stealth"},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("seed42-%d-%s", tc.year, tc.scenario)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := QuickStudy(42, tc.year)
			cfg.Scenario = tc.scenario
			s, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := goldenRenders[name]
			for _, exp := range core.ExperimentNames() {
				out, _ := core.RenderExperiment(s, exp)
				sum := sha256.Sum256([]byte(out))
				if got := hex.EncodeToString(sum[:]); got != want[exp] {
					t.Errorf("%q: %q,", exp, got)
				}
			}
			if len(want) != len(core.ExperimentNames()) {
				t.Errorf("%d digests pinned, want one per experiment (%d)", len(want), len(core.ExperimentNames()))
			}
		})
	}
}
