package core

import (
	"math"
	"strings"
	"sync"
	"testing"

	"cloudwatch/internal/fingerprint"
	"cloudwatch/internal/netsim"
	"cloudwatch/internal/wire"
)

// sharedStudy caches one scaled study per year across experiment
// tests; building it is the expensive part.
var (
	studyMu    sync.Mutex
	studyCache = map[int]*Study{}
)

func sharedStudy(t *testing.T, year int) *Study {
	t.Helper()
	studyMu.Lock()
	defer studyMu.Unlock()
	if s, ok := studyCache[year]; ok {
		return s
	}
	s, err := Run(testConfig(42, year))
	if err != nil {
		t.Fatal(err)
	}
	studyCache[year] = s
	return s
}

func cell2(t *testing.T, r Table2Result, slice ProtocolSlice, char Characteristic) Table2Cell {
	t.Helper()
	for _, c := range r.Cells {
		if c.Slice == slice && c.Characteristic == char {
			return c
		}
	}
	t.Fatalf("no cell for %v/%v", slice, char)
	return Table2Cell{}
}

func TestTable1Shape(t *testing.T) {
	s := sharedStudy(t, 2021)
	r := s.Table1()
	if len(r.Rows) < 8 {
		t.Fatalf("Table 1 has %d rows", len(r.Rows))
	}
	var telescopeIPs, maxHoneypotIPs int
	for _, row := range r.Rows {
		if row.UniqueIPs == 0 {
			t.Errorf("network %s saw no scanners", row.Network)
		}
		if row.Collection == "telescope" {
			telescopeIPs = row.UniqueIPs
		} else if row.UniqueIPs > maxHoneypotIPs {
			maxHoneypotIPs = row.UniqueIPs
		}
	}
	// Headline shape: the telescope sees far more unique sources than
	// any honeypot network (paper: 5.1M vs ≈100K).
	if telescopeIPs < maxHoneypotIPs {
		t.Errorf("telescope saw %d unique IPs, honeypot max %d: telescope should dominate", telescopeIPs, maxHoneypotIPs)
	}
	if !strings.Contains(r.Render(), "orion") {
		t.Error("render missing telescope row")
	}
}

func TestTable2Shape(t *testing.T) {
	s := sharedStudy(t, 2021)
	r := s.Table2()
	if len(r.Cells) != 14 {
		t.Fatalf("Table 2 has %d cells, want 14", len(r.Cells))
	}

	sshAS := cell2(t, r, SliceSSH22, CharTopAS)
	if sshAS.FractionDifferent < 0.2 || sshAS.FractionDifferent > 0.8 {
		t.Errorf("SSH/22 AS different = %v, want substantial (paper 44%%)", sshAS.FractionDifferent)
	}
	sshPass := cell2(t, r, SliceSSH22, CharTopPasswords)
	if sshPass.FractionDifferent > 0.15 {
		t.Errorf("SSH/22 password different = %v, want rare (paper 4%%)", sshPass.FractionDifferent)
	}
	// Username divergence dwarfs password divergence for SSH.
	sshUser := cell2(t, r, SliceSSH22, CharTopUsernames)
	if sshUser.FractionDifferent <= sshPass.FractionDifferent {
		t.Errorf("SSH username diff (%v) should exceed password diff (%v)", sshUser.FractionDifferent, sshPass.FractionDifferent)
	}
	// HTTP across all ports diverges more than HTTP/80 alone.
	p80 := cell2(t, r, SliceHTTP80, CharTopPayloads)
	pAll := cell2(t, r, SliceHTTPAll, CharTopPayloads)
	if pAll.FractionDifferent <= p80.FractionDifferent {
		t.Errorf("HTTP/All payload diff (%v) should exceed HTTP/80 (%v)", pAll.FractionDifferent, p80.FractionDifferent)
	}
}

func TestTable3Shape(t *testing.T) {
	s := sharedStudy(t, 2021)
	r := s.Table3()
	get := func(svc, traffic, group string) Table3Row {
		for _, row := range r.Rows {
			if row.Service == svc && row.Traffic == traffic && row.Group == group {
				return row
			}
		}
		t.Fatalf("missing row %s/%s/%s", svc, traffic, group)
		return Table3Row{}
	}
	// Leaked HTTP services attract multiples more traffic.
	if row := get("HTTP/80", "All", "censys"); row.Fold < 2 {
		t.Errorf("HTTP/80 censys-leaked fold = %v, want > 2 (paper 7.7)", row.Fold)
	}
	if row := get("HTTP/80", "All", "shodan"); row.Fold < 3 {
		t.Errorf("HTTP/80 shodan-leaked fold = %v, want > 3 (paper 15.7)", row.Fold)
	}
	// SSH miners rely more on Shodan than Censys.
	sshShodan := get("SSH/22", "Malicious", "shodan")
	sshCensys := get("SSH/22", "Malicious", "censys")
	if sshShodan.Fold <= sshCensys.Fold {
		t.Errorf("SSH shodan fold (%v) should exceed censys (%v)", sshShodan.Fold, sshCensys.Fold)
	}
	if sshShodan.Fold < 1.5 {
		t.Errorf("SSH shodan-leaked fold = %v, want > 1.5 (paper 2.8)", sshShodan.Fold)
	}
	// Telnet: Censys bursts are huge, Shodan adds nearly nothing, and
	// the malicious fold is far below the volume fold.
	telC := get("Telnet/23", "All", "censys")
	telS := get("Telnet/23", "All", "shodan")
	if telC.Fold < 5 || telS.Fold > 2 {
		t.Errorf("Telnet folds censys=%v shodan=%v, want censys>>shodan (paper 72.6 vs 1.06)", telC.Fold, telS.Fold)
	}
	if telMal := get("Telnet/23", "Malicious", "censys"); telMal.Fold >= telC.Fold {
		t.Errorf("Telnet malicious fold (%v) should be far below volume fold (%v)", telMal.Fold, telC.Fold)
	}
	// Previously-leaked services still attract elevated traffic.
	if prev := get("HTTP/80", "All", "prevleaked"); prev.Fold < 2 {
		t.Errorf("prev-leaked HTTP fold = %v, want > 2 (paper 17.2)", prev.Fold)
	}
	// ~3x more unique SSH passwords on leaked services.
	if r.UniquePasswordFold < 1.8 {
		t.Errorf("unique password fold = %v, want > 1.8 (paper 3)", r.UniquePasswordFold)
	}
	if !strings.Contains(r.Render(), "Censys Leaked") {
		t.Error("render missing header")
	}
}

func TestTable4And5APACShape(t *testing.T) {
	s := sharedStudy(t, 2021)
	r4 := s.Table4()
	apac, other := 0, 0
	for _, c := range r4.Cells {
		if c.MostDiffRegion == "-" {
			continue
		}
		if strings.HasPrefix(c.MostDiffRegion, "AP-") {
			apac++
		} else {
			other++
		}
	}
	if apac <= other {
		t.Errorf("most-different regions: %d APAC vs %d other — APAC should dominate (Table 4)", apac, other)
	}

	r5 := s.Table5()
	// APAC pairs must be less similar than US pairs for HTTP payloads.
	var usSim, apacSim float64
	var usN, apacN int
	for _, c := range r5.Cells {
		if c.Characteristic != CharTopPayloads || c.Slice != SliceHTTPAll {
			continue
		}
		switch c.GeoGroup {
		case "US":
			usSim, usN = c.SimilarFraction, c.Pairs
		case "APAC":
			apacSim, apacN = c.SimilarFraction, c.Pairs
		}
	}
	if usN == 0 || apacN == 0 {
		t.Fatal("missing US or APAC pair groups")
	}
	if apacSim >= usSim {
		t.Errorf("APAC similarity (%v) should be below US similarity (%v) for HTTP/All payloads", apacSim, usSim)
	}
}

func TestTable7Shape(t *testing.T) {
	s := sharedStudy(t, 2021)
	r := s.Table7()
	// Cloud–cloud comparisons rarely differ; when they do the effect
	// is modest (paper: "attackers rarely discriminate amongst
	// different cloud networks").
	for _, c := range r.Cells {
		if c.Kind != "cloud-cloud" || c.NotComputable {
			continue
		}
		if c.Pairs == 0 {
			t.Errorf("cloud-cloud %v/%v had no testable pairs", c.Slice, c.Characteristic)
			continue
		}
		if frac := float64(c.Different) / float64(c.Pairs); frac > 0.5 {
			t.Errorf("cloud-cloud %v/%v: %d/%d differ — should be the exception", c.Slice, c.Characteristic, c.Different, c.Pairs)
		}
	}
	// The paper's "×" cells must be marked, not silently computed.
	marked := 0
	for _, c := range r.Cells {
		if c.NotComputable {
			marked++
		}
	}
	if marked == 0 {
		t.Error("no ×-cells: Honeytrap credential axes should be not-computable")
	}
}

func TestTable8TelescopeAvoidanceShape(t *testing.T) {
	s := sharedStudy(t, 2021)
	r := s.Table8()
	rows := map[uint16]Table8Row{}
	for _, row := range r.Rows {
		rows[row.Port] = row
	}
	// Telnet scanners do not avoid the telescope; SSH scanners do.
	if rows[23].TelCloudFrac < 0.6 {
		t.Errorf("port 23 tel∩cloud = %v, want high (paper 91%%)", rows[23].TelCloudFrac)
	}
	if rows[22].TelCloudFrac > 0.3 {
		t.Errorf("port 22 tel∩cloud = %v, want low (paper 13%%)", rows[22].TelCloudFrac)
	}
	if rows[2222].TelCloudFrac > 0.3 {
		t.Errorf("port 2222 tel∩cloud = %v, want low (paper 9%%)", rows[2222].TelCloudFrac)
	}
	// EDU scanners overlap the telescope more than cloud scanners
	// (Merit and Orion share an AS).
	higher := 0
	for _, port := range Table8Ports {
		if rows[port].TelEDUFrac >= rows[port].TelCloudFrac {
			higher++
		}
	}
	if higher < len(Table8Ports)*2/3 {
		t.Errorf("EDU telescope overlap exceeded cloud on only %d/%d ports", higher, len(Table8Ports))
	}
	// Most scanners that target the cloud also target EDU networks.
	if rows[2222].CloudEDUFrac < 0.7 || rows[21].CloudEDUFrac < 0.7 {
		t.Errorf("cloud∩EDU should be high on bruteforce ports: 2222=%v 21=%v",
			rows[2222].CloudEDUFrac, rows[21].CloudEDUFrac)
	}
}

func TestTable9MaliciousAvoidanceShape(t *testing.T) {
	s := sharedStudy(t, 2021)
	r := s.Table9()
	rows := map[uint16]Table9Row{}
	for _, row := range r.Rows {
		rows[row.Port] = row
	}
	if rows[22].TelCloudFrac > 0.15 {
		t.Errorf("malicious port-22 overlap = %v, want < 15%% (paper 7.5%%)", rows[22].TelCloudFrac)
	}
	if rows[23].TelCloudFrac < 0.5 {
		t.Errorf("malicious port-23 overlap = %v, want high (paper 94%%)", rows[23].TelCloudFrac)
	}
	if rows[22].EDUComputable || !rows[80].EDUComputable {
		t.Error("EDU computability flags wrong (SSH ×, HTTP computable)")
	}
}

func TestTable10DifferentScannersShape(t *testing.T) {
	s := sharedStudy(t, 2021)
	r := s.Table10()
	for _, c := range r.Cells {
		if c.Slice != SliceSSH22 {
			continue
		}
		if c.Different != c.Networks {
			t.Errorf("%s SSH: %d/%d networks differ from telescope, want all (paper: large φ)", c.Kind, c.Different, c.Networks)
		}
		if c.AvgPhi < 0.4 {
			t.Errorf("%s SSH avg φ = %v, want large", c.Kind, c.AvgPhi)
		}
	}
}

func TestTable11UnexpectedProtocolShape(t *testing.T) {
	s := sharedStudy(t, 2021)
	r := s.Table11()
	if len(r.Rows) != 4 {
		t.Fatalf("Table 11 has %d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Expected {
			continue
		}
		// ≥15% of scanners on 80/8080 target non-HTTP protocols, and
		// the majority of them are malicious.
		if row.Share < 0.08 || row.Share > 0.45 {
			t.Errorf("port %d unexpected share = %v, want ≈15%%", row.Port, row.Share)
		}
		if row.MaliciousFrac < 0.5 {
			t.Errorf("port %d unexpected malicious = %v, want majority", row.Port, row.MaliciousFrac)
		}
	}
	if r.ByProto["tls"] == 0 {
		t.Error("TLS should lead the unexpected protocols (paper: 7%)")
	}
	if !strings.Contains(r.TopBenign, "Censys") {
		t.Errorf("leading benign unexpected-service finder = %q, want Censys", r.TopBenign)
	}
}

func TestTable17DoublesUnexpectedShare(t *testing.T) {
	s21 := sharedStudy(t, 2021)
	s22 := sharedStudy(t, 2022)
	share := func(s *Study) float64 {
		for _, row := range s.Table11().Rows {
			if row.Port == 80 && !row.Expected {
				return row.Share
			}
		}
		return 0
	}
	if share(s22) <= share(s21) {
		t.Errorf("2022 unexpected share (%v) should exceed 2021 (%v) (Table 17: ≈2x)", share(s22), share(s21))
	}
	for _, row := range s22.Table11().Rows {
		if row.HasLabels {
			t.Error("2022 rows must have no GreyNoise labels (API data absent)")
		}
	}
}

// TestTable11LabelsFollowVerdicts checks Table 11's GreyNoise labels
// against the labeling rule applied to reconstructed records: a
// candidate scanner is malicious if any of the study's records from it
// is malicious, else benign if a benign actor's AS owns it, else
// unknown. It runs on every snapshot of a chain that flips verdicts,
// where a flip can move a source in or out of the malicious label.
func TestTable11LabelsFollowVerdicts(t *testing.T) {
	es, err := GenerateEpochs(testConfig(3, 2021), 4)
	if err != nil {
		t.Fatal(err)
	}
	networks := map[string]bool{"stanford:us-west": true, "aws:ht-us-west": true, "google:ht-us-west": true}
	inc := es.Incremental()
	for inc.Prefix() < es.NumEpochs() {
		s, err := inc.Advance()
		if err != nil {
			t.Fatal(err)
		}
		exploited := map[wire.Addr]bool{}
		for i := 0; i < s.NumRecords(); i++ {
			if rec := recordAt(s, i); recordMalicious(s, rec) {
				exploited[rec.Src] = true
			}
		}
		vetted := map[int]bool{}
		for _, a := range s.Actors {
			if a.Benign {
				vetted[a.AS.ASN] = true
			}
		}
		for _, port := range []uint16{80, 8080} {
			// Candidates: sources with an identified payload on the
			// port at the three Honeytrap networks.
			asn := map[wire.Addr]int{}
			for i := 0; i < s.NumRecords(); i++ {
				rec := recordAt(s, i)
				tgt, _ := s.U.ByID(rec.Vantage)
				if !networks[tgt.Region] || tgt.Collector != netsim.CollectHoneytrap || rec.Port != port || rec.Pay == 0 {
					continue
				}
				if fingerprint.Identify(rec.Payload) != fingerprint.Unknown {
					asn[rec.Src] = rec.ASN
				}
			}
			wantMal, wantBen := 0, 0
			for src, a := range asn {
				switch {
				case exploited[src]:
					wantMal++
				case vetted[a]:
					wantBen++
				}
			}
			if wantMal == 0 || wantBen == 0 {
				t.Fatalf("prefix %d port %d: %d malicious and %d benign candidates, want both", inc.Prefix(), port, wantMal, wantBen)
			}
			var gotMal, gotBen, scanners float64
			for _, row := range s.Table11().Rows {
				if row.Port == port {
					gotMal += row.MaliciousFrac * float64(row.Scanners)
					gotBen += row.BenignFrac * float64(row.Scanners)
					scanners += float64(row.Scanners)
				}
			}
			if int(scanners) != len(asn) || int(math.Round(gotMal)) != wantMal || int(math.Round(gotBen)) != wantBen {
				t.Errorf("prefix %d port %d: Table 11 labels %v malicious, %v benign of %v scanners; want %d, %d of %d",
					inc.Prefix(), port, gotMal, gotBen, scanners, wantMal, wantBen, len(asn))
			}
		}
	}
	if inc.Repairs() == 0 {
		t.Fatal("the chain flipped no verdict")
	}
}

func TestTable12Consistent2020(t *testing.T) {
	s := sharedStudy(t, 2020)
	r := s.Table2()
	sshAS := cell2(t, r, SliceSSH22, CharTopAS)
	// 2020 anomalies push SSH AS divergence higher than 2021 (73% vs 44%).
	if sshAS.FractionDifferent < 0.25 {
		t.Errorf("2020 SSH AS different = %v, want substantial (paper 73%%)", sshAS.FractionDifferent)
	}
}

func TestFigure1Shape(t *testing.T) {
	// Figure 1 needs the telescope-heavy config (two full /16s).
	cfg := testConfig(42, 2021)
	cfg.Deploy.TelescopeSlash24s = 512
	s, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := s.Figure1()
	if len(r.Panels) != 4 {
		t.Fatalf("Figure 1 has %d panels", len(r.Panels))
	}
	panels := map[uint16]Figure1Panel{}
	for _, p := range r.Panels {
		panels[p.Port] = p
	}
	// (a) Port 22: /16 starts are strongly preferred.
	if b := panels[22].Slash16StartBoost; b < 3 {
		t.Errorf("port-22 /16-start boost = %v, want > 3 (paper: one order of magnitude)", b)
	}
	// (b) Port 445: 255-octet addresses are avoided.
	if ratio := panels[445].Octet255Ratio; ratio > 0.5 {
		t.Errorf("port-445 255-octet ratio = %v, want < 0.5 (paper: 9x avoidance)", ratio)
	}
	// (c) Port 80: 255-octet addresses are avoided, but mildly — the
	// paper's Figure 1c dips are small because research scanners and
	// background radiation sweep port 80 uniformly.
	if ratio := panels[80].Octet255Ratio; ratio >= 1.0 {
		t.Errorf("port-80 255-octet ratio = %v, want < 1.0", ratio)
	}
	// (d) Port 17128: exactly four latched addresses.
	if n := len(panels[17128].TopAddresses); n != 4 {
		t.Errorf("port-17128 top addresses = %d, want 4", n)
	}
	if len(panels[22].Windows) == 0 {
		t.Error("port-22 window series empty")
	}
	if !strings.Contains(r.Render(), "port 17128") {
		t.Error("render missing 17128 panel")
	}
}

func TestTable6Render(t *testing.T) {
	s := sharedStudy(t, 2021)
	out := s.Table6().Render()
	for _, city := range []string{"CA-US", "FRA-DE", "SIN-SG"} {
		if !strings.Contains(out, city) {
			t.Errorf("Table 6 missing city %s", city)
		}
	}
}

// TestDominantProtocolTieBreak pins Table 11's dominant non-HTTP
// protocol pick on tied counts: the lower protocol value wins on every
// map iteration order, so one snapshot always renders one line.
func TestDominantProtocolTieBreak(t *testing.T) {
	for i := 0; i < 200; i++ {
		protos := map[fingerprint.Protocol]int{
			fingerprint.HTTP:   9,
			fingerprint.Redis:  2,
			fingerprint.RTSP:   2,
			fingerprint.SMB:    2,
			fingerprint.Telnet: 1,
		}
		dom, other := dominantProtocol(protos)
		if dom != fingerprint.SMB || other != 7 {
			t.Fatalf("iteration %d: dominantProtocol = (%v, %d), want (%v, 7)", i, dom, other, fingerprint.SMB)
		}
	}
}
