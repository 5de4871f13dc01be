package data

import (
	"crypto/sha256"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// answerValues are the values TestValueAnswersUnchanged pins: every kind,
// and the edges of each — strings that read as another kind, NUL bytes, a
// 1 MiB string, the empty substring at the end of a text and a tail one,
// ±0, two NaN payloads, the integer extremes and dates before the epoch.
func answerValues() []Value {
	text := "head,tail"
	return []Value{
		Null,
		NewString(""), NewString("NULL"), NewString("007"), NewString("a\x00b\x00"),
		NewString(strings.Repeat("0123456789abcdef", 1<<16)),
		NewString(text[len(text):]), NewString(text[5:]), NewString("true"),
		NewInt(0), NewInt(-7), NewInt(math.MinInt64), NewInt(math.MaxInt64),
		NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(1.5), NewFloat(math.Inf(1)),
		NewFloat(math.Float64frombits(0x7ff8000000000001)), NewFloat(math.Float64frombits(0xfff8000000000123)),
		NewBool(false), NewBool(true),
		NewDate(2004, time.March, 1), NewDateFromDays(-1), NewDate(1900, time.January, 1),
	}
}

// short quotes s, or names a long one by its length and checksum.
func short(s string) string {
	if len(s) > 40 {
		return fmt.Sprintf("<%d bytes, crc %08x>", len(s), crc32.ChecksumIEEE([]byte(s)))
	}
	return strconv.Quote(s)
}

// answerLine renders every accessor's answer on v, its key, hash and digest,
// and the kind and text it reads back as from a CSV file (csv).
func answerLine(v, csv Value) string {
	return fmt.Sprintf("%v null=%v num=%v int=%d float=%#x str=%s bool=%v days=%d time=%d string=%s key=%s hash=%#x digest=%#x csv=%v:%s",
		v.Kind(), v.IsNull(), v.IsNumeric(), v.Int(), math.Float64bits(v.Float()), short(v.Str()), v.Bool(), v.Days(), v.Time().Unix(),
		short(v.String()), short(Record{v}.Key()), HashKey(Record{v}, nil), Rows{{v}}.Digest(), csv.Kind(), short(csv.String()))
}

// pairLine renders row i of a pairwise relation over vs, one byte a pair.
func pairLine(vs []Value, i int, rel func(a, b Value) byte) string {
	b := make([]byte, len(vs))
	for j := range vs {
		b[j] = rel(vs[i], vs[j])
	}
	return string(b)
}

// TestValueAnswersUnchanged pins what every accessor answers on every kind,
// and what the key path, the digest, the row-file bytes and the CSV round
// trip make of it, as recorded from the 32-byte layout (a kind tag, a
// payload word and a string header): a layout change moves none of them.
// The cells that moved when Compare became the one exact order were
// re-recorded: NaN against a number, -0 against 0 as a key, and the
// hashes of -0, MaxInt64 and the tuple holding them.
func TestValueAnswersUnchanged(t *testing.T) {
	vs := answerValues()
	dir := t.TempDir()
	rows, numbered := make(Rows, len(vs)), make(Rows, len(vs))
	for i, v := range vs {
		rows[i] = Record{v}
		numbered[i] = Record{NewInt(int64(i)), v} // a one-field line of "" would be a blank line
	}
	csvPath := filepath.Join(dir, "v.csv")
	if err := WriteCSVFile(csvPath, Schema{"I", "V"}, numbered); err != nil {
		t.Fatal(err)
	}
	_, back, err := ReadCSVFile(csvPath)
	if err != nil || len(back) != len(vs) {
		t.Fatalf("CSV round trip: %d rows, %v", len(back), err)
	}
	rowPath := filepath.Join(dir, "v.rows")
	if err := WriteRowFile(rowPath, Schema{"V"}, rows); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(rowPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, got, err := ReadRowFile(rowPath); err != nil || got.Digest() != rows.Digest() {
		t.Errorf("row file read back %d rows, %v; digest equal %v", len(got), err, got.Digest() == rows.Digest())
	}

	var got []string
	for i, v := range vs {
		got = append(got, answerLine(v, back[i][1]))
	}
	for i := range vs {
		got = append(got, "cmp "+pairLine(vs, i, func(a, b Value) byte { return "<=>"[a.Compare(b)+1] }))
	}
	for i := range vs {
		got = append(got, "eq  "+pairLine(vs, i, func(a, b Value) byte { return ".E"[b2i(a.Equal(b))] }))
	}
	for i := range vs {
		got = append(got, "key "+pairLine(vs, i, func(a, b Value) byte { return ".K"[b2i(KeyEqual(Record{a}, nil, Record{b}, nil))] }))
	}
	all := Record(vs)
	got = append(got,
		fmt.Sprintf("tuple hash=%#x digest=%#x key=%s", HashKey(all, nil), Rows{all}.Digest(), short(all.Key())),
		fmt.Sprintf("row file %d bytes, sha256 %x", len(raw), sha256.Sum256(raw)))

	if len(got) != len(valueAnswers) {
		t.Errorf("%d answers, %d pinned", len(got), len(valueAnswers))
	}
	for i := range min(len(got), len(valueAnswers)) {
		if got[i] != valueAnswers[i] {
			t.Errorf("answer %d:\n got %s\nwant %s", i, got[i], valueAnswers[i])
		}
	}
	if t.Failed() {
		var b strings.Builder
		for _, line := range got {
			fmt.Fprintf(&b, "\t%q,\n", line)
		}
		t.Logf("the answers now:\n%s", b.String())
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// valueAnswers, one line a value of answerValues, then Compare ("<=>"),
// Equal and KeyEqual row by row, then the values as one tuple and the
// row file they make, one value a row.
var valueAnswers = []string{
	"null null=true num=false int=0 float=0x0 str=\"NULL\" bool=false days=0 time=0 string=\"NULL\" key=\"\\x00\" hash=0x9f1b00350a554539 digest=0x711313ca74c7a5b0 csv=null:\"NULL\"",
	"string null=false num=false int=0 float=0x0 str=\"\" bool=false days=0 time=0 string=\"\" key=\"s:\" hash=0x5b89c0c0063723ea digest=0x2c9a9b97120676ff csv=null:\"NULL\"",
	"string null=false num=false int=0 float=0x0 str=\"NULL\" bool=false days=0 time=0 string=\"NULL\" key=\"s:NULL\" hash=0xdf9257311699d284 digest=0x494ec89f6d28379c csv=null:\"NULL\"",
	"string null=false num=false int=0 float=0x0 str=\"007\" bool=false days=0 time=0 string=\"007\" key=\"s:007\" hash=0xd23e926e00db12b3 digest=0x6fbb5a2ff514493c csv=int:\"7\"",
	"string null=false num=false int=0 float=0x0 str=\"a\\x00b\\x00\" bool=false days=0 time=0 string=\"a\\x00b\\x00\" key=\"s:a\\x00b\\x00\" hash=0xe5984d14f57df6de digest=0xa73ee691b3cb2c2c csv=string:\"a\\x00b\\x00\"",
	"string null=false num=false int=0 float=0x0 str=<1048576 bytes, crc 06595696> bool=false days=0 time=0 string=<1048576 bytes, crc 06595696> key=<1048578 bytes, crc e9777258> hash=0xf5054937d6bea98b digest=0xb21071b7102d6d8d csv=string:<1048576 bytes, crc 06595696>",
	"string null=false num=false int=0 float=0x0 str=\"\" bool=false days=0 time=0 string=\"\" key=\"s:\" hash=0x5b89c0c0063723ea digest=0x2c9a9b97120676ff csv=null:\"NULL\"",
	"string null=false num=false int=0 float=0x0 str=\"tail\" bool=false days=0 time=0 string=\"tail\" key=\"s:tail\" hash=0xdcbf94a2cea1f489 digest=0xc68eab5d02cf660f csv=string:\"tail\"",
	"string null=false num=false int=0 float=0x0 str=\"true\" bool=false days=0 time=0 string=\"true\" key=\"s:true\" hash=0x7e4d500c1f2165ba digest=0x1f440b248994c878 csv=bool:\"true\"",
	"int null=false num=true int=0 float=0x0 str=\"0\" bool=false days=0 time=0 string=\"0\" key=\"n:0\" hash=0x5b73f5e69926939f digest=0x980ed94d8a36149d csv=int:\"0\"",
	"int null=false num=true int=-7 float=0xc01c000000000000 str=\"-7\" bool=true days=-7 time=-604800 string=\"-7\" key=\"n:-7\" hash=0x59ce2b992efb913d digest=0xe18b6821d3f8d11a csv=int:\"-7\"",
	"int null=false num=true int=-9223372036854775808 float=0xc3e0000000000000 str=\"-9223372036854775808\" bool=true days=-9223372036854775808 time=0 string=\"-9223372036854775808\" key=\"n:-9.223372036854776e+18\" hash=0xfda25cd1d0f190c0 digest=0x96b03c6fda486565 csv=int:\"-9223372036854775808\"",
	"int null=false num=true int=9223372036854775807 float=0x43e0000000000000 str=\"9223372036854775807\" bool=true days=9223372036854775807 time=-86400 string=\"9223372036854775807\" key=\"n:9.223372036854776e+18\" hash=0x9c52b5ebf285bded digest=0xcbf0e56e1dd93131 csv=int:\"9223372036854775807\"",
	"float null=false num=true int=0 float=0x0 str=\"0\" bool=false days=0 time=0 string=\"0\" key=\"n:0\" hash=0x5b73f5e69926939f digest=0x74fad7e66bc9a1ed csv=int:\"0\"",
	"float null=false num=true int=0 float=0x8000000000000000 str=\"-0\" bool=false days=-9223372036854775808 time=0 string=\"-0\" key=\"n:-0\" hash=0x5b73f5e69926939f digest=0x4474ad0987fee3d8 csv=int:\"0\"",
	"float null=false num=true int=1 float=0x3ff8000000000000 str=\"1.5\" bool=true days=4609434218613702656 time=8358680908399640576 string=\"1.5\" key=\"n:1.5\" hash=0x9db16cf5cbfaa20c digest=0xeece8111feb429a6 csv=float:\"1.5\"",
	"float null=false num=true int=-9223372036854775808 float=0x7ff0000000000000 str=\"+Inf\" bool=true days=9218868437227405312 time=-1729382256910270464 string=\"+Inf\" key=\"n:+Inf\" hash=0x7936f8d585ffbbe digest=0xc1f5cd643d9b8435 csv=float:\"+Inf\"",
	"float null=false num=true int=-9223372036854775808 float=0x7ff8000000000001 str=\"NaN\" bool=true days=9221120237041090561 time=8358680908399726976 string=\"NaN\" key=\"n:NaN\" hash=0xaa534a1bb8e2998c digest=0x42fe551a857254c4 csv=float:\"NaN\"",
	"float null=false num=true int=-9223372036854775808 float=0xfff8000000000123 str=\"NaN\" bool=true days=-2251799813684957 time=8358680908424782976 string=\"NaN\" key=\"n:NaN\" hash=0xaa534a1bb8e2998c digest=0x987403c2ae645593 csv=float:\"NaN\"",
	"bool null=false num=false int=0 float=0x0 str=\"false\" bool=false days=0 time=0 string=\"false\" key=\"b:0\" hash=0x52c672d2c5218bb8 digest=0xdee4f14c97239c9c csv=bool:\"false\"",
	"bool null=false num=false int=1 float=0x3ff0000000000000 str=\"true\" bool=true days=1 time=86400 string=\"true\" key=\"b:1\" hash=0x7a4dbba6c5f1ae7d digest=0x94c06d3157b642a8 csv=bool:\"true\"",
	"date null=false num=false int=12478 float=0x40c85f0000000000 str=\"2004-03-01\" bool=false days=12478 time=1078099200 string=\"2004-03-01\" key=\"d:12478\" hash=0x1e897404ba68bc82 digest=0x80e7855d911c89b1 csv=date:\"2004-03-01\"",
	"date null=false num=false int=-1 float=0xbff0000000000000 str=\"1969-12-31\" bool=false days=-1 time=-86400 string=\"1969-12-31\" key=\"d:-1\" hash=0xc065d927c62f6899 digest=0xf6373a2193e250c6 csv=date:\"1969-12-31\"",
	"date null=false num=false int=-25567 float=0xc0d8f7c000000000 str=\"1900-01-01\" bool=false days=-25567 time=-2208988800 string=\"1900-01-01\" key=\"d:-25567\" hash=0xd9759c1e6abf2e98 digest=0x716601c12a138f43 csv=date:\"1900-01-01\"",
	"cmp =<<<<<<<<<<<<<<<<<<<<<<<",
	"cmp >=<<<<=<<>>>>>>>>>><<<<<",
	"cmp >>=><>><<>>>>>>>>>><<<<<",
	"cmp >><=<<><<>>>>>>>>>><<<<<",
	"cmp >>>>=>><<>>>>>>>>>><<<<<",
	"cmp >><><=><<>>>>>>>>>><<<<<",
	"cmp >=<<<<=<<>>>>>>>>>><<<<<",
	"cmp >>>>>>>=<>>>>>>>>>><<<<<",
	"cmp >>>>>>>>=>>>>>>>>>><<<<<",
	"cmp ><<<<<<<<=>><==<<<<<<<<<",
	"cmp ><<<<<<<<<=><<<<<<<<<<<<",
	"cmp ><<<<<<<<<<=<<<<<<<<<<<<",
	"cmp ><<<<<<<<>>>=>>><<<<<<<<",
	"cmp ><<<<<<<<=>><==<<<<<<<<<",
	"cmp ><<<<<<<<=>><==<<<<<<<<<",
	"cmp ><<<<<<<<>>><>>=<<<<<<<<",
	"cmp ><<<<<<<<>>>>>>>=<<<<<<<",
	"cmp ><<<<<<<<>>>>>>>>==<<<<<",
	"cmp ><<<<<<<<>>>>>>>>==<<<<<",
	"cmp >>>>>>>>>>>>>>>>>>>=<<<<",
	"cmp >>>>>>>>>>>>>>>>>>>>=<<<",
	"cmp >>>>>>>>>>>>>>>>>>>>>=>>",
	"cmp >>>>>>>>>>>>>>>>>>>>><=>",
	"cmp >>>>>>>>>>>>>>>>>>>>><<=",
	"eq  E.......................",
	"eq  .E....E.................",
	"eq  ..E.....................",
	"eq  ...E....................",
	"eq  ....E...................",
	"eq  .....E..................",
	"eq  .E....E.................",
	"eq  .......E................",
	"eq  ........E...............",
	"eq  .........E...EE.........",
	"eq  ..........E.............",
	"eq  ...........E............",
	"eq  ............E...........",
	"eq  .........E...EE.........",
	"eq  .........E...EE.........",
	"eq  ...............E........",
	"eq  ................E.......",
	"eq  .................EE.....",
	"eq  .................EE.....",
	"eq  ...................E....",
	"eq  ....................E...",
	"eq  .....................E..",
	"eq  ......................E.",
	"eq  .......................E",
	"key K.......................",
	"key .K....K.................",
	"key ..K.....................",
	"key ...K....................",
	"key ....K...................",
	"key .....K..................",
	"key .K....K.................",
	"key .......K................",
	"key ........K...............",
	"key .........K...KK.........",
	"key ..........K.............",
	"key ...........K............",
	"key ............K...........",
	"key .........K...KK.........",
	"key .........K...KK.........",
	"key ...............K........",
	"key ................K.......",
	"key .................KK.....",
	"key .................KK.....",
	"key ...................K....",
	"key ....................K...",
	"key .....................K..",
	"key ......................K.",
	"key .......................K",
	"tuple hash=0xf47987440a9d749c digest=0x43134e25c4f9cd8 key=<1048742 bytes, crc 2749a42b>",
	"row file 1048762 bytes, sha256 0ca3aa5f94da8c4ba09e86961217aa69c40199b4fa2c2038024b18b9b53b0165",
}
