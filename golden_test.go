package puppies_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"image"
	"image/jpeg"
	"testing"

	"puppies"
	"puppies/internal/dataset"
	"puppies/internal/imgplane"
	"puppies/internal/jpegc"
	"puppies/internal/keys"
)

// The golden-bytes suite pins the exact output of the write path: the
// digests below were recorded from the codec before the streaming
// pixels-to-blocks kernel and the bitmap entropy coder replaced the
// plane-based path, so any change to a single output byte — a rounding
// difference in the forward DCT, a reordered symbol, a different DQT
// layout — fails here. The corpus mixes all four dataset profiles at odd
// dimensions (partial edge blocks and MCUs), 4:4:4 pixel inputs and stdlib
// 4:2:0 JPEG inputs, every variant, and TransformSupport on and off.

// goldenProfiles shrinks each corpus profile to a small odd size so the
// suite stays fast while still exercising partial edge blocks.
var goldenProfiles = []dataset.Profile{
	withSize(dataset.Caltech, 229, 150),
	withSize(dataset.PASCAL, 203, 137),
	withSize(dataset.FERET, 96, 141),
	withSize(dataset.INRIA, 161, 213),
}

func withSize(p dataset.Profile, w, h int) dataset.Profile {
	p.W, p.H = w, h
	return p
}

// goldenCorpus returns one seeded image per profile, as planes and as the
// 8-bit stdlib image Protect consumes.
func goldenCorpus(t *testing.T) ([]*imgplane.Image, []image.Image) {
	t.Helper()
	var planes []*imgplane.Image
	var std []image.Image
	for _, p := range goldenProfiles {
		g, err := dataset.NewGenerator(p, 2024)
		if err != nil {
			t.Fatal(err)
		}
		pl := g.Item(3).Image.Quantize8()
		planes = append(planes, pl)
		std = append(std, pl.ToStdImage())
	}
	return planes, std
}

// goldenRegions returns two disjoint regions; the tight layout puts them
// in adjacent 8-pixel blocks, so on a 4:2:0 input their MCU expansions
// collide and ProtectJPEG takes the Normalize444 path.
func goldenRegions(w, h int, tight bool) []puppies.Rect {
	if tight {
		return []puppies.Rect{{X: 8, Y: 8, W: 8, H: 8}, {X: 16, Y: 8, W: 16, H: 24}}
	}
	return []puppies.Rect{{X: w / 8, Y: h / 8, W: w / 3, H: h / 3}, {X: w / 2, Y: h / 2, W: w / 3, H: h / 4}}
}

func goldenKeys(seed int64) []*puppies.KeyPair {
	return []*puppies.KeyPair{keys.NewPairDeterministic(seed), keys.NewPairDeterministic(seed + 1)}
}

func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// goldenDigests maps case name to the truncated SHA-256 of its output.
var goldenDigests = map[string]string{
	"caltech/encode/420/tables=1/ri=0":                   "4e920a1e60017a9ee5a62282c20d2397",
	"caltech/encode/420/tables=1/ri=1":                   "500bd82e51a2b58be1d6c0c55d969348",
	"caltech/encode/420/tables=1/ri=4":                   "1c542784c007c96577b2c460231026b3",
	"caltech/encode/420/tables=2/ri=0":                   "d059b83cb98aa9f55468fd21040cabe4",
	"caltech/encode/444/tables=1/ri=0":                   "15974e6b9046d349ce004a3ea88b8e4b",
	"caltech/encode/444/tables=1/ri=1":                   "d8429b6b3b08d3a5d6b95c67b6f3100c",
	"caltech/encode/444/tables=1/ri=4":                   "9cae7ff76247750ac25b9af90f1ee427",
	"caltech/encode/444/tables=2/ri=0":                   "39cc98d41857a4a4f5c616800267d7b6",
	"caltech/encode/gray/tables=1/ri=0":                  "128461a72d467e3490d25ec276bd52af",
	"caltech/encode/gray/tables=1/ri=1":                  "b64aaee732b9d937b9abb4d217c2da03",
	"caltech/encode/gray/tables=1/ri=4":                  "f6493ea1bafa5afcf4175abde6d98aa0",
	"caltech/encode/gray/tables=2/ri=0":                  "00bae6feb0249e84fb9b6b6e1d96e78e",
	"caltech/encodejpeg":                                 "7788277efec22f2393d5aaae48a6268e",
	"caltech/protect/detect":                             "f661958603a1a40b92e7d90fe4a71994",
	"caltech/protect/puppies-b/ts=false":                 "6cf1489eb542289992295dd7278d5ead",
	"caltech/protect/puppies-b/ts=true":                  "e34ffa31c3736388ea36526d35ad1895",
	"caltech/protect/puppies-c/ts=false":                 "ed4ab98b29000fe694c9afe51d9cf2f4",
	"caltech/protect/puppies-c/ts=true":                  "37ebab0b608dfb3a4ed7c510841f9ee6",
	"caltech/protect/puppies-n/ts=false":                 "6fdd7bb137fe996f5210b78fafd637ea",
	"caltech/protect/puppies-n/ts=true":                  "c9c13cc2f5354ea66b92bbd7e5c3900a",
	"caltech/protect/puppies-z/ts=false":                 "4fba5f93636b5bf84225596d057e2fb0",
	"caltech/protect/puppies-z/ts=true":                  "258c34619bc4a6faf1077f9b0cb877e0",
	"caltech/protectjpeg/puppies-b/ts=false/tight=false": "e79a903c2a0d8038bd46dafa014efe21",
	"caltech/protectjpeg/puppies-b/ts=false/tight=true":  "9482b7086db50ab644bd55e7e61b1ccd",
	"caltech/protectjpeg/puppies-b/ts=true/tight=false":  "786eaf789aecf261ff81afa43ec209a4",
	"caltech/protectjpeg/puppies-b/ts=true/tight=true":   "1e08ebf4db494d1461164b4de8ed6d55",
	"caltech/protectjpeg/puppies-c/ts=false/tight=false": "df8f14f38f31c2d834b5e886f6bf7d30",
	"caltech/protectjpeg/puppies-c/ts=false/tight=true":  "aa5366ee437a52382579a5265e5debd6",
	"caltech/protectjpeg/puppies-c/ts=true/tight=false":  "f0eaa34ad0fa29812aa749e345f82835",
	"caltech/protectjpeg/puppies-c/ts=true/tight=true":   "224188a7e8a5b8e8d4756d9f36bbe945",
	"caltech/protectjpeg/puppies-n/ts=false/tight=false": "b5e7ba8f054bf4bde846d4a75872b22a",
	"caltech/protectjpeg/puppies-n/ts=false/tight=true":  "6bc5f7bb46e30fedc32b6376d9a036cb",
	"caltech/protectjpeg/puppies-n/ts=true/tight=false":  "490868623ab5ec88c59abc7b1cdbaf86",
	"caltech/protectjpeg/puppies-n/ts=true/tight=true":   "1595a08ebfd39f5714f5203658c565ab",
	"caltech/protectjpeg/puppies-z/ts=false/tight=false": "d726f09db66f91400be310c5cfdfe1ed",
	"caltech/protectjpeg/puppies-z/ts=false/tight=true":  "2be411fb9de6e26e4f84986b35a37b8a",
	"caltech/protectjpeg/puppies-z/ts=true/tight=false":  "ac3dcf2ebc6885aa91af29f0ff1470f6",
	"caltech/protectjpeg/puppies-z/ts=true/tight=true":   "76cb52fb5d27586a078d81942a4f365a",
	"feret/encode/420/tables=1/ri=0":                     "31d9c7fc69a1190f6fe5cf690b727e9d",
	"feret/encode/420/tables=1/ri=1":                     "7d17ee980d0e553134b9e35a2490e303",
	"feret/encode/420/tables=1/ri=4":                     "7677fbefce4490f05c07844ec1a744db",
	"feret/encode/420/tables=2/ri=0":                     "0059c866b02da113e7e689f9f88b4ade",
	"feret/encode/444/tables=1/ri=0":                     "94e6dda6b15d4e7d8ee3d44d893faf17",
	"feret/encode/444/tables=1/ri=1":                     "c2bc02bda869f8ab74535e5be0da5f13",
	"feret/encode/444/tables=1/ri=4":                     "5047a20e486542862ccf8315b8496b2a",
	"feret/encode/444/tables=2/ri=0":                     "baee4de5637b4fcbfb17f8d3ad55b321",
	"feret/encode/gray/tables=1/ri=0":                    "2d1d78846eb1b68241868745722f4607",
	"feret/encode/gray/tables=1/ri=1":                    "3ae5838dfde82732fb5d0b9029699830",
	"feret/encode/gray/tables=1/ri=4":                    "ab736108865f8b6c1272897aac538fba",
	"feret/encode/gray/tables=2/ri=0":                    "70be353954c1360eee224167d208b21e",
	"feret/encodejpeg":                                   "c456530008c65d62947adad06988abc5",
	"feret/protect/puppies-b/ts=false":                   "b0836b47283a973fa882859d8dfd1cf6",
	"feret/protect/puppies-b/ts=true":                    "70c63f2cacb87e5799cc064a3e5a55db",
	"feret/protect/puppies-c/ts=false":                   "8828eeac0c7a4275c121c733880a70de",
	"feret/protect/puppies-c/ts=true":                    "9b0eafff830151ef778c17c141666790",
	"feret/protect/puppies-n/ts=false":                   "c2c0ae59f3674ff1f096e4df83a04824",
	"feret/protect/puppies-n/ts=true":                    "821231270d3dbc54ef1ca81bf2f54c93",
	"feret/protect/puppies-z/ts=false":                   "6472bc1de01ebd9c8596d0bec3b08e47",
	"feret/protect/puppies-z/ts=true":                    "b8372f782bc49e98c8172bde6f45de03",
	"feret/protectjpeg/puppies-b/ts=false/tight=false":   "ad8aa4b64bab0cac0895b2e2985b50ac",
	"feret/protectjpeg/puppies-b/ts=false/tight=true":    "93df8e2e28020c24e7888fcd909684fa",
	"feret/protectjpeg/puppies-b/ts=true/tight=false":    "94c242e3f378272f40ffef050d236a75",
	"feret/protectjpeg/puppies-b/ts=true/tight=true":     "04ceab599cbcd89a55547a5d538179fa",
	"feret/protectjpeg/puppies-c/ts=false/tight=false":   "01fd5db433133ac7e46e51ca60fac7b2",
	"feret/protectjpeg/puppies-c/ts=false/tight=true":    "8e38844b2d9bfe165a26b6758827772e",
	"feret/protectjpeg/puppies-c/ts=true/tight=false":    "6bcf60f9312600d82da00f65b48db354",
	"feret/protectjpeg/puppies-c/ts=true/tight=true":     "c7b1dbf14ca10a85d7e068a7f39f4e00",
	"feret/protectjpeg/puppies-n/ts=false/tight=false":   "17b233f85e562058ee69de84d9c3c934",
	"feret/protectjpeg/puppies-n/ts=false/tight=true":    "310fa0d8a1b55b876db5e288149ec954",
	"feret/protectjpeg/puppies-n/ts=true/tight=false":    "4cb1db30ffe1ed998547effe7128da66",
	"feret/protectjpeg/puppies-n/ts=true/tight=true":     "e1bbe6d64f952976a4d3338237dc15d1",
	"feret/protectjpeg/puppies-z/ts=false/tight=false":   "a5007746c595dbe8b505a2effba69db9",
	"feret/protectjpeg/puppies-z/ts=false/tight=true":    "c678ac115672a1e05859e8c25f5ec504",
	"feret/protectjpeg/puppies-z/ts=true/tight=false":    "b93d6603321958177e6938ea30d68a0d",
	"feret/protectjpeg/puppies-z/ts=true/tight=true":     "7bcf0746da47a2d35e85edf8054d04b0",
	"inria/encode/420/tables=1/ri=0":                     "b45ccfab62047aebbcc93442a3c5744e",
	"inria/encode/420/tables=1/ri=1":                     "556dff9461665ad45b53486c7b3f6e63",
	"inria/encode/420/tables=1/ri=4":                     "27032cd0d44d60d6995acc829465f2f8",
	"inria/encode/420/tables=2/ri=0":                     "9c41313c5135f635196c299263518477",
	"inria/encode/444/tables=1/ri=0":                     "53fed9165d57f516652cedf25bd8b06b",
	"inria/encode/444/tables=1/ri=1":                     "99cdb8a5717eb2760e366b7a01de6337",
	"inria/encode/444/tables=1/ri=4":                     "f328d5e23b7f4190492e381d5e7c91f4",
	"inria/encode/444/tables=2/ri=0":                     "cc247d2de2d79023ee4191c79396dba5",
	"inria/encode/gray/tables=1/ri=0":                    "55f0d92aaea43a4ee4ceefd5ee952987",
	"inria/encode/gray/tables=1/ri=1":                    "8ea649c549547ddaab269c80769bad33",
	"inria/encode/gray/tables=1/ri=4":                    "9d2f3d9afad16109f8f09a72bfc2d88f",
	"inria/encode/gray/tables=2/ri=0":                    "56d421196a70ffe215d0463670b283ce",
	"inria/encodejpeg":                                   "29b0c1cf13e755a9d060d6156b7231b2",
	"inria/protect/puppies-b/ts=false":                   "1605428376c6066d49814831cb8c6f60",
	"inria/protect/puppies-b/ts=true":                    "09a9cef3ba9e3d99a2604291dacb72ec",
	"inria/protect/puppies-c/ts=false":                   "1270cc42ffbfc2ba84db64cab9bb857c",
	"inria/protect/puppies-c/ts=true":                    "bc78d2ed0dbd393e19e6b2b3c4930580",
	"inria/protect/puppies-n/ts=false":                   "1d2f0b4d2c9201ddbe21ff64d4a1b001",
	"inria/protect/puppies-n/ts=true":                    "f69a112ebeb3046b1f6612d930d56108",
	"inria/protect/puppies-z/ts=false":                   "f80be25941e9e3f91bd7ee8e40855c0a",
	"inria/protect/puppies-z/ts=true":                    "d7090fbd38a1d7f9db4c649f3ad6f38b",
	"inria/protectjpeg/puppies-b/ts=false/tight=false":   "01d54e9bf46fa99c60bdabc72fbded7f",
	"inria/protectjpeg/puppies-b/ts=false/tight=true":    "f98390370d860fa7d44fbab236b33afa",
	"inria/protectjpeg/puppies-b/ts=true/tight=false":    "1ba55fec234654cf7fa7d51f3fa52a78",
	"inria/protectjpeg/puppies-b/ts=true/tight=true":     "adfdb7dcc8f71325de627e62091a7c88",
	"inria/protectjpeg/puppies-c/ts=false/tight=false":   "d5f151c66b325aacda62297a3817343d",
	"inria/protectjpeg/puppies-c/ts=false/tight=true":    "a487154344e5ec44d8814f5fad5e439e",
	"inria/protectjpeg/puppies-c/ts=true/tight=false":    "3189edc951d4cb20b93c1fc675df0a07",
	"inria/protectjpeg/puppies-c/ts=true/tight=true":     "16d52b581639a363c868c407b69260d9",
	"inria/protectjpeg/puppies-n/ts=false/tight=false":   "a7c31ca59eaea7dd7da85b9722149c83",
	"inria/protectjpeg/puppies-n/ts=false/tight=true":    "c1617a03d7d05242c3645db3b2632fa8",
	"inria/protectjpeg/puppies-n/ts=true/tight=false":    "5c5d7a7bbd23d7b624e0302699fd33b0",
	"inria/protectjpeg/puppies-n/ts=true/tight=true":     "5f040a75fbf66474ca6ee0315b9f26a0",
	"inria/protectjpeg/puppies-z/ts=false/tight=false":   "5b7cc1e9060cf99b48d5e4015f1b38fe",
	"inria/protectjpeg/puppies-z/ts=false/tight=true":    "57f5f457e4cef3ea6e45ea15372a51df",
	"inria/protectjpeg/puppies-z/ts=true/tight=false":    "e1a5711cb7b921a369e4c0622bf52fa8",
	"inria/protectjpeg/puppies-z/ts=true/tight=true":     "48e593912f361d57bf7dba83c212e3c9",
	"pascal/encode/420/tables=1/ri=0":                    "ff93c8e5d13994ce4c686c5bd12351a9",
	"pascal/encode/420/tables=1/ri=1":                    "73d1ad59d6a0e146ec25dc8615a5c8f9",
	"pascal/encode/420/tables=1/ri=4":                    "e907ac8423c9e96025a11412d8b7d843",
	"pascal/encode/420/tables=2/ri=0":                    "55b52db8afd9541d76d907c1d31eb8c1",
	"pascal/encode/444/tables=1/ri=0":                    "29fc506892b6c9b6e39b29dc10bb839b",
	"pascal/encode/444/tables=1/ri=1":                    "afe3a2ba1d9b6e8e75c91b1be99177d2",
	"pascal/encode/444/tables=1/ri=4":                    "edcda72666ace68a78740677b6ef284c",
	"pascal/encode/444/tables=2/ri=0":                    "84e87ec631e19e9d4602cbd7a4e08f01",
	"pascal/encode/gray/tables=1/ri=0":                   "8995be31b14be91367e541724a5a6f5f",
	"pascal/encode/gray/tables=1/ri=1":                   "c821014019ae9eba2fe487d92b3001a3",
	"pascal/encode/gray/tables=1/ri=4":                   "7b09b2ade080772e3c2e6c08c96b781b",
	"pascal/encode/gray/tables=2/ri=0":                   "09ccfc790d9554aa288220ec44320e55",
	"pascal/encodejpeg":                                  "4376df66c4d03094137ebfdf5c8df819",
	"pascal/protect/puppies-b/ts=false":                  "f9782eb258c625009c96700a8f62a690",
	"pascal/protect/puppies-b/ts=true":                   "fba206b209c2445c7705b40819e4438d",
	"pascal/protect/puppies-c/ts=false":                  "f4679b3b75c197aca7d810bc52ea3a35",
	"pascal/protect/puppies-c/ts=true":                   "d0a79f24f461ebac72ba83c3a4e91606",
	"pascal/protect/puppies-n/ts=false":                  "f553f115e21f7e91f19684d787f7df96",
	"pascal/protect/puppies-n/ts=true":                   "03463d9e2208a4457a6a2a94fc2a8cc1",
	"pascal/protect/puppies-z/ts=false":                  "5f50f24097139138a6bbe0fbf6758da0",
	"pascal/protect/puppies-z/ts=true":                   "f26bf965106329d376e7e85190c500ee",
	"pascal/protectjpeg/puppies-b/ts=false/tight=false":  "20e755669fc5281bdc272be0183afea9",
	"pascal/protectjpeg/puppies-b/ts=false/tight=true":   "03e2b382e9662362d35f655eee5cf5aa",
	"pascal/protectjpeg/puppies-b/ts=true/tight=false":   "9b6306c9733a9f27735a398b15ca9a08",
	"pascal/protectjpeg/puppies-b/ts=true/tight=true":    "af92b643decf304088aa062c317a15d5",
	"pascal/protectjpeg/puppies-c/ts=false/tight=false":  "7ee2eb648b23bcfe84b68c304a6d9905",
	"pascal/protectjpeg/puppies-c/ts=false/tight=true":   "045f76e2207349ea4d504ad4dc6f1797",
	"pascal/protectjpeg/puppies-c/ts=true/tight=false":   "9052111d1d210ef6da7df3a26fb37a06",
	"pascal/protectjpeg/puppies-c/ts=true/tight=true":    "cfd19a8b392d9442afa6db07f5f3e086",
	"pascal/protectjpeg/puppies-n/ts=false/tight=false":  "9061f3b697407bdf4cfc2e8e245e2259",
	"pascal/protectjpeg/puppies-n/ts=false/tight=true":   "00d134b1236858469c2484fbef878864",
	"pascal/protectjpeg/puppies-n/ts=true/tight=false":   "08f624a627752e15f9dc0cce82f4a56e",
	"pascal/protectjpeg/puppies-n/ts=true/tight=true":    "947165c1ac80aad59a425adf77de54d9",
	"pascal/protectjpeg/puppies-z/ts=false/tight=false":  "fea4a273bcf3ad10708603059da4c07d",
	"pascal/protectjpeg/puppies-z/ts=false/tight=true":   "a38aadd21e8f12154f44de5baa6365ef",
	"pascal/protectjpeg/puppies-z/ts=true/tight=false":   "1cb197e3db5a06aed99cc7c3478af07a",
	"pascal/protectjpeg/puppies-z/ts=true/tight=true":    "1c36615c078b53232c3e2bd27e2823c4",
}

func TestGoldenBytes(t *testing.T) {
	planes, std := goldenCorpus(t)
	got := map[string]string{}
	variants := []puppies.Variant{puppies.VariantN, puppies.VariantB, puppies.VariantC, puppies.VariantZ}
	for pi, src := range std {
		name := goldenProfiles[pi].Name
		w, h := src.Bounds().Dx(), src.Bounds().Dy()

		enc, err := puppies.EncodeJPEG(src, 0)
		if err != nil {
			t.Fatal(err)
		}
		got[name+"/encodejpeg"] = digest(enc)

		var std420 bytes.Buffer
		if err := jpeg.Encode(&std420, src, &jpeg.Options{Quality: 85}); err != nil {
			t.Fatal(err)
		}
		for vi, v := range variants {
			for _, support := range []bool{false, true} {
				seed := int64(100*pi + 10*vi)
				if support {
					seed += 5
				}
				opts := puppies.ProtectOptions{Variant: v, TransformSupport: support, Quality: 70 + 5*vi,
					Regions: goldenRegions(w, h, false), Keys: goldenKeys(seed)}
				p, err := puppies.Protect(src, opts)
				if err != nil {
					t.Fatalf("%s: Protect %s: %v", name, v, err)
				}
				got[fmt.Sprintf("%s/protect/%s/ts=%v", name, v, support)] = digest(p.JPEG, p.Params)

				for _, tight := range []bool{false, true} {
					opts.Regions = goldenRegions(w, h, tight)
					p, err := puppies.ProtectJPEG(std420.Bytes(), opts)
					if err != nil {
						t.Fatalf("%s: ProtectJPEG %s: %v", name, v, err)
					}
					got[fmt.Sprintf("%s/protectjpeg/%s/ts=%v/tight=%v", name, v, support, tight)] = digest(p.JPEG, p.Params)
				}
			}
		}

		// The raw codec: 4:4:4 color from planes, grayscale, and the stdlib
		// 4:2:0 stream carried natively, under both table modes and
		// restart intervals 0, 1 and 4. Optimized tables with restart
		// markers are not pinned: the statistics pass used to ignore the DC
		// predictor reset at each restart, so its tables described a symbol
		// stream other than the one emitted (and could lack a code the scan
		// needs). TestEncodeOptimizedRestartRoundTrip in internal/jpegc
		// covers that mode instead.
		color, err := jpegc.FromPlanar(planes[pi], jpegc.Options{Quality: 80})
		if err != nil {
			t.Fatal(err)
		}
		gray, err := jpegc.FromPlanar(&imgplane.Image{Planes: planes[pi].Planes[:1]}, jpegc.Options{Quality: 60})
		if err != nil {
			t.Fatal(err)
		}
		sub, err := jpegc.Decode(bytes.NewReader(std420.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for kind, img := range map[string]*jpegc.Image{"444": color, "gray": gray, "420": sub} {
			for _, tables := range []jpegc.TableMode{jpegc.TablesDefault, jpegc.TablesOptimized} {
				for _, ri := range []int{0, 1, 4} {
					if tables == jpegc.TablesOptimized && ri > 0 {
						continue
					}
					var buf bytes.Buffer
					if err := img.Encode(&buf, jpegc.EncodeOptions{Tables: tables, RestartInterval: ri}); err != nil {
						t.Fatalf("%s: encode %s tables=%d ri=%d: %v", name, kind, tables, ri, err)
					}
					got[fmt.Sprintf("%s/encode/%s/tables=%d/ri=%d", name, kind, tables, ri)] = digest(buf.Bytes())
				}
			}
		}
	}

	// ROI detection path: Protect with nil Regions runs the detectors on
	// the converted planes.
	faces, err := dataset.NewGenerator(withSize(dataset.Caltech, 448, 296), 2024)
	if err != nil {
		t.Fatal(err)
	}
	detectSrc := faces.Item(0).Image.Quantize8().ToStdImage()
	regions := puppies.DetectRegions(detectSrc)
	if len(regions) == 0 {
		t.Fatal("detection corpus image has no detectable regions")
	}
	ks := make([]*puppies.KeyPair, len(regions))
	for i := range ks {
		ks[i] = keys.NewPairDeterministic(int64(900 + i))
	}
	p, err := puppies.Protect(detectSrc, puppies.ProtectOptions{Variant: puppies.VariantC, Keys: ks})
	if err != nil {
		t.Fatal(err)
	}
	got["caltech/protect/detect"] = digest(p.JPEG, p.Params)

	for name, d := range got {
		want, ok := goldenDigests[name]
		switch {
		case !ok:
			t.Errorf("no golden digest for %q (got %s)", name, d)
		case d != want:
			t.Errorf("%s: digest %s, want %s", name, d, want)
		}
	}
	for name := range goldenDigests {
		if _, ok := got[name]; !ok {
			t.Errorf("golden case %q was not produced", name)
		}
	}
}
