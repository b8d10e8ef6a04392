// Serving-layer tests: CanonStore construction over a decoded result,
// snapshot round-trip byte-identity, corruption handling (truncated /
// bit-flipped / wrong-magic / future-version files must fail with clean
// Status errors), request routing, and the acceptance bar — correct
// responses under >= 4 concurrent HTTP readers while an ingestion
// session swaps the published store mid-flight.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/runtime.h"
#include "core/session.h"
#include "data/generator.h"
#include "obs/metrics.h"
#include "serve/canon_store.h"
#include "serve/http_client.h"
#include "serve/http_util.h"
#include "serve/json.h"
#include "serve/response_cache.h"
#include "serve/server.h"
#include "serve/shard_store.h"
#include "serve/snapshot_io.h"
#include "seeded_mutants.h"
#include "support/canon_store_reference.h"
#include "support/query_reference.h"

// Heap-allocation probe for the zero-alloc acceptance tests.
#include "support/allocation_counter.h"

namespace jocl {
namespace {

// ---------- a tiny world with a known canonical structure --------------------
//
// The paper's Figure 1(a) example: "University of Maryland" / "UMD" are
// the same entity, "Universitas 21" / "U21" likewise, and the CKB knows
// both through anchors + PPDB.
class ServeWorld : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset();
    dataset_->name = "serve-world";
    CuratedKb& ckb = dataset_->ckb;
    EntityId maryland = ckb.AddEntity("maryland");
    EntityId u21 = ckb.AddEntity("universitas 21");
    EntityId uva = ckb.AddEntity("university of virginia");
    EntityId umd = ckb.AddEntity("university of maryland");
    RelationId contained_by = ckb.AddRelation("location.contained_by");
    RelationId founded = ckb.AddRelation("organizations_founded");
    ASSERT_TRUE(ckb.AddRelationAlias(contained_by, "locate in").ok());
    ASSERT_TRUE(ckb.AddRelationAlias(founded, "member of").ok());
    ASSERT_TRUE(ckb.AddFact(umd, contained_by, maryland).ok());
    ASSERT_TRUE(ckb.AddFact(uva, founded, u21).ok());
    ASSERT_TRUE(ckb.AddAnchor("university of maryland", umd, 95).ok());
    ASSERT_TRUE(ckb.AddAnchor("umd", umd, 40).ok());
    ASSERT_TRUE(ckb.AddAnchor("maryland", maryland, 70).ok());
    ASSERT_TRUE(ckb.AddAnchor("universitas 21", u21, 30).ok());
    ASSERT_TRUE(ckb.AddAnchor("u21", u21, 12).ok());
    ASSERT_TRUE(ckb.AddAnchor("university of virginia", uva, 80).ok());

    OpenKb& okb = dataset_->okb;
    ASSERT_TRUE(
        okb.AddTriple("University of Maryland", "locate in", "Maryland")
            .ok());
    ASSERT_TRUE(
        okb.AddTriple("UMD", "be a member of", "Universitas 21").ok());
    ASSERT_TRUE(okb.AddTriple("University of Virginia",
                              "be an early member of", "U21")
                    .ok());
    for (size_t t = 0; t < okb.size(); ++t) {
      dataset_->gold_subject_entity.push_back(kNilId);
      dataset_->gold_relation.push_back(kNilId);
      dataset_->gold_object_entity.push_back(kNilId);
      dataset_->gold_np_group.push_back(static_cast<int64_t>(t * 2));
      dataset_->gold_np_group.push_back(static_cast<int64_t>(t * 2 + 1));
      dataset_->gold_rp_group.push_back(static_cast<int64_t>(t));
    }
    dataset_->ppdb.AddCluster({"university of maryland", "umd"});
    dataset_->ppdb.AddCluster({"universitas 21", "u21"});
    dataset_->ppdb.AddCluster({"be a member of", "be an early member of"});
    signals_ = new SignalBundle(BuildSignals(*dataset_).MoveValueOrDie());

    std::vector<size_t> all = {0, 1, 2};
    result_ = new JoclResult(
        JoclRuntime().Infer(*dataset_, *signals_, all).MoveValueOrDie());
    problem_ = new JoclProblem(BuildProblem(*dataset_, *signals_, all));
    store_ = new CanonStore(
        BuildCanonStore(*problem_, *result_, dataset_->ckb, /*generation=*/7));
  }

  static void TearDownTestSuite() {
    delete store_;
    delete problem_;
    delete result_;
    delete signals_;
    delete dataset_;
    store_ = nullptr;
    problem_ = nullptr;
    result_ = nullptr;
    signals_ = nullptr;
    dataset_ = nullptr;
  }

  static Dataset* dataset_;
  static SignalBundle* signals_;
  static JoclResult* result_;
  static JoclProblem* problem_;
  static CanonStore* store_;
};

Dataset* ServeWorld::dataset_ = nullptr;
SignalBundle* ServeWorld::signals_ = nullptr;
JoclResult* ServeWorld::result_ = nullptr;
JoclProblem* ServeWorld::problem_ = nullptr;
CanonStore* ServeWorld::store_ = nullptr;

// ---------- CanonStore -------------------------------------------------------

TEST_F(ServeWorld, StoreIndexesSurfacesClustersAndLinks) {
  const CanonStore& store = *store_;
  EXPECT_EQ(store.triple_count, 3u);
  EXPECT_EQ(store.generation, 7u);
  ASSERT_TRUE(ValidateCanonStore(store).ok());

  // Surfaces keep the OKB's raw casing; lookups are exact-match.
  const int64_t umd = store.FindSurface(CanonKind::kNp, "UMD");
  const int64_t long_form =
      store.FindSurface(CanonKind::kNp, "University of Maryland");
  ASSERT_GE(umd, 0);
  ASSERT_GE(long_form, 0);
  EXPECT_EQ(store.FindSurface(CanonKind::kNp, "no such surface"), -1);
  EXPECT_EQ(store.FindSurface(CanonKind::kRp, "UMD"), -1);
  EXPECT_GE(store.FindSurface(CanonKind::kRp, "locate in"), 0);

  // The joint model canonicalizes UMD with its long form; both surfaces
  // sit in one cluster whose canonical link is the UMD entity.
  ConstSpan<uint32_t> umd_clusters = store.ClustersOf(CanonKind::kNp, umd);
  ConstSpan<uint32_t> long_clusters =
      store.ClustersOf(CanonKind::kNp, long_form);
  ASSERT_EQ(umd_clusters.size(), 1u);
  ASSERT_EQ(long_clusters.size(), 1u);
  EXPECT_EQ(umd_clusters[0], long_clusters[0]);
  const size_t cluster = umd_clusters[0];
  ConstSpan<uint32_t> members =
      store.ClusterMembers(CanonKind::kNp, cluster);
  EXPECT_EQ(members.size(), 2u);
  bool saw_umd = false;
  bool saw_long = false;
  for (uint32_t member : members) {
    if (store.SurfaceText(CanonKind::kNp, member) == "UMD") saw_umd = true;
    if (store.SurfaceText(CanonKind::kNp, member) ==
        "University of Maryland") {
      saw_long = true;
    }
  }
  EXPECT_TRUE(saw_umd);
  EXPECT_TRUE(saw_long);
  EXPECT_EQ(store.ClusterLinkName(CanonKind::kNp, cluster),
            "university of maryland");
  EXPECT_EQ(store.ClusterLink(CanonKind::kNp, cluster),
            dataset_->ckb.FindEntityByName("university of maryland"));
  EXPECT_EQ(store.MentionCount(CanonKind::kNp, umd), 1u);
}

TEST_F(ServeWorld, StoreIsDeterministic) {
  CanonStore rebuilt =
      BuildCanonStore(*problem_, *result_, dataset_->ckb, 7);
  EXPECT_EQ(SerializeSnapshot(rebuilt), SerializeSnapshot(*store_));
  EXPECT_EQ(SerializeSnapshot(BuildCanonStoreReference(
                *problem_, *result_, dataset_->ckb, 7)),
            SerializeSnapshot(*store_));
}

// ---------- snapshot I/O -----------------------------------------------------

TEST_F(ServeWorld, SnapshotRoundTripIsByteIdentical) {
  const std::string bytes = SerializeSnapshot(*store_);
  Result<CanonStore> loaded = DeserializeSnapshot(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(SerializeSnapshot(loaded.ValueOrDie()), bytes);

  const std::string path = ::testing::TempDir() + "/jocl_serve_test.snap";
  size_t written = 0;
  ASSERT_TRUE(SaveSnapshot(*store_, path, &written).ok());
  EXPECT_EQ(written, bytes.size());
  Result<CanonStore> from_file = LoadSnapshot(path);
  ASSERT_TRUE(from_file.ok()) << from_file.status();
  EXPECT_EQ(SerializeSnapshot(from_file.ValueOrDie()), bytes);
  const CanonStore& reloaded = from_file.ValueOrDie();
  EXPECT_EQ(reloaded.FindSurface(CanonKind::kNp, "UMD"),
            store_->FindSurface(CanonKind::kNp, "UMD"));
  std::remove(path.c_str());
}

TEST_F(ServeWorld, LoadRejectsTruncatedFile) {
  const std::string bytes = SerializeSnapshot(*store_);
  // Mid-payload truncation: the header's promised size no longer holds.
  Result<CanonStore> cut =
      DeserializeSnapshot(std::string_view(bytes).substr(0, bytes.size() - 7));
  ASSERT_FALSE(cut.ok());
  EXPECT_EQ(cut.status().code(), StatusCode::kIOError);
  EXPECT_NE(cut.status().message().find("truncated"), std::string::npos)
      << cut.status();
  // Header truncation.
  Result<CanonStore> header =
      DeserializeSnapshot(std::string_view(bytes).substr(0, 12));
  ASSERT_FALSE(header.ok());
  EXPECT_NE(header.status().message().find("header"), std::string::npos);
  // Empty file.
  EXPECT_FALSE(DeserializeSnapshot("").ok());
}

TEST_F(ServeWorld, LoadRejectsFlippedChecksumAndPayloadBytes) {
  const std::string bytes = SerializeSnapshot(*store_);
  // Flip one payload byte: the stored checksum no longer matches.
  std::string corrupt = bytes;
  corrupt[kSnapshotHeaderBytes + corrupt.size() / 2] ^= 0x40;
  Result<CanonStore> payload_flip = DeserializeSnapshot(corrupt);
  ASSERT_FALSE(payload_flip.ok());
  EXPECT_NE(payload_flip.status().message().find("checksum"),
            std::string::npos)
      << payload_flip.status();
  // Flip one byte of the stored checksum itself.
  corrupt = bytes;
  corrupt[24] ^= 0x01;
  Result<CanonStore> checksum_flip = DeserializeSnapshot(corrupt);
  ASSERT_FALSE(checksum_flip.ok());
  EXPECT_NE(checksum_flip.status().message().find("checksum"),
            std::string::npos);
}

TEST_F(ServeWorld, LoadRejectsWrongMagic) {
  std::string corrupt = SerializeSnapshot(*store_);
  corrupt[0] = 'X';
  Result<CanonStore> loaded = DeserializeSnapshot(corrupt);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("magic"), std::string::npos);
}

TEST_F(ServeWorld, LoadRejectsFutureVersion) {
  std::string corrupt = SerializeSnapshot(*store_);
  corrupt[8] = 99;  // version field (little-endian u32 at offset 8)
  Result<CanonStore> loaded = DeserializeSnapshot(corrupt);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(loaded.status().message().find("version 99"), std::string::npos)
      << loaded.status();
}

TEST(SnapshotIoTest, LoadRejectsMissingFile) {
  EXPECT_FALSE(LoadSnapshot("/nonexistent/dir/store.snap").ok());
}

TEST_F(ServeWorld, SnapshotV2BytesArePinned) {
  // A hand-written problem and result (no LBP, no floating point), so the
  // store — and therefore its snapshot bytes — is the same on every
  // compiler and -march. The constants were recorded from the version-2
  // writer; any change to the on-disk layout must bump kSnapshotVersion.
  const CuratedKb& ckb = dataset_->ckb;
  JoclProblem problem;
  problem.triples = {0, 1, 2};
  problem.subject_surfaces = {"University of Maryland", "UMD",
                              "University of Virginia"};
  problem.predicate_surfaces = {"locate in", "be a member of",
                                "be an early member of"};
  problem.object_surfaces = {"Maryland", "Universitas 21", "U21"};
  problem.subject_of = {0, 1, 2};
  problem.predicate_of = {0, 1, 2};
  problem.object_of = {0, 1, 2};
  const int64_t umd = ckb.FindEntityByName("university of maryland");
  const int64_t maryland = ckb.FindEntityByName("maryland");
  const int64_t u21 = ckb.FindEntityByName("universitas 21");
  const int64_t uva = ckb.FindEntityByName("university of virginia");
  JoclResult result;
  result.triples = problem.triples;
  result.np_cluster = {0, 1, 0, 2, 3, 2};
  result.np_link = {umd, maryland, umd, u21, uva, u21};
  result.rp_cluster = {0, 1, 1};
  result.rp_link = {ckb.FindRelationByName("location.contained_by"),
                    ckb.FindRelationByName("organizations_founded"),
                    kNilId};

  const CanonStore monolith =
      BuildCanonStore(problem, result, ckb, /*generation=*/7);
  Result<std::vector<CanonStore>> shards =
      BuildShardedCanonStores(monolith, 2);
  ASSERT_TRUE(shards.ok()) << shards.status();
  ASSERT_EQ(shards.ValueOrDie().size(), 2u);

  const std::string bytes[] = {SerializeSnapshot(monolith),
                               SerializeSnapshot(shards.ValueOrDie()[0]),
                               SerializeSnapshot(shards.ValueOrDie()[1])};
  const uint64_t pinned[] = {0x31f735b2b4bbd76dull, 0xba8fbdfb3178728bull,
                             0x455b05a700d9803bull};
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(bytes[i].compare(0, 8, "JOCLSNAP"), 0);
    EXPECT_EQ(static_cast<uint8_t>(bytes[i][8]), kSnapshotVersion);
    EXPECT_EQ(Fnv1a64(bytes[i].data(), bytes[i].size()), pinned[i])
        << "snapshot " << i << " (" << bytes[i].size() << " bytes)";
    Result<CanonStore> loaded = DeserializeSnapshot(bytes[i]);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(SerializeSnapshot(loaded.ValueOrDie()), bytes[i]);
  }
}

// ---------- seeded mutation of the snapshot parser ---------------------------
//
// The corruption tests above all stop at the checksum. These mutants carry
// a header resealed to their new payload size and checksum, so every one
// reaches DeserializePayload and ValidateCanonStore. Each must either fail
// with a descriptive Status or load a store that is safe to serve.

/// \p payload behind \p snapshot's header, with the header's payload size
/// and checksum rewritten to match.
std::string Reseal(const std::string& snapshot, const std::string& payload) {
  std::string out = snapshot.substr(0, kSnapshotHeaderBytes);
  const uint64_t fields[] = {payload.size(),
                             Fnv1a64(payload.data(), payload.size())};
  for (size_t f = 0; f < 2; ++f) {
    for (size_t b = 0; b < 8; ++b) {
      out[16 + 8 * f + b] = static_cast<char>((fields[f] >> (8 * b)) & 0xff);
    }
  }
  return out + payload;
}

/// Loads \p snapshot; on success, touches every accessor and renders every
/// endpoint the server would, so asan/ubsan see any out-of-range index the
/// validator let through. Returns the load status.
Status LoadAndServe(const std::string& snapshot) {
  Result<CanonStore> loaded = DeserializeSnapshot(snapshot);
  if (!loaded.ok()) {
    EXPECT_FALSE(loaded.status().message().empty());
    return loaded.status();
  }
  const CanonStore& store = loaded.ValueOrDie();
  const std::string again = SerializeSnapshot(store);
  Result<CanonStore> reloaded = DeserializeSnapshot(again);
  EXPECT_TRUE(reloaded.ok()) << reloaded.status();
  if (reloaded.ok()) {
    EXPECT_EQ(SerializeSnapshot(reloaded.ValueOrDie()), again);
  }
  const ServeCounters no_counters;
  for (CanonKind kind : {CanonKind::kNp, CanonKind::kRp}) {
    const char* kind_name = kind == CanonKind::kNp ? "np" : "rp";
    const CanonSection& section = store.section(kind);
    for (size_t s = 0; s < section.surface_count(); ++s) {
      const std::string text(store.SurfaceText(kind, s));
      const int64_t found = store.FindSurface(kind, text);
      EXPECT_GE(found, 0) << "surface " << s << " not in the sorted index";
      if (found >= 0) {
        EXPECT_EQ(store.SurfaceText(kind, found), text);
      }
      for (const char* path : {"/lookup", "/link"}) {
        int status = 0;
        HandleCanonRequest(&store, "GET",
                           std::string(path) + "?kind=" + kind_name +
                               "&surface=" + UrlEncode(text),
                           no_counters, &status);
      }
    }
    for (size_t c = 0; c < section.cluster_count(); ++c) {
      int status = 0;
      HandleCanonRequest(&store, "GET",
                         std::string("/cluster?kind=") + kind_name + "&id=" +
                             std::to_string(store.GlobalClusterId(kind, c)),
                         no_counters, &status);
    }
  }
  return Status::OK();
}

TEST_F(ServeWorld, LoadRejectsUnsortedSurfaceIndex) {
  // Regression for the mutants the seeded test below first found: a
  // spliced index entry or text-pool byte that keeps every id in range
  // but leaves the binary-search index unsorted, so lookups of surfaces
  // the store holds 404. Both now fail validation.
  ASSERT_GE(store_->np.surface_count(), 2u);
  CanonStore swapped = *store_;
  std::swap(swapped.np.surface_order[0], swapped.np.surface_order[1]);
  Result<CanonStore> loaded = DeserializeSnapshot(SerializeSnapshot(swapped));
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("not sorted"), std::string::npos)
      << loaded.status();

  CanonStore renamed = *store_;
  const uint32_t first = renamed.np.surface_text[renamed.np.surface_order[0]];
  renamed.text_pool[renamed.text_offset[first]] = '~';  // sorts last
  loaded = DeserializeSnapshot(SerializeSnapshot(renamed));
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("not sorted"), std::string::npos)
      << loaded.status();
}

TEST_F(ServeWorld, LoadRejectsTwoSurfacesWithOneText) {
  // Two surfaces of one section that share a text keep the index sorted,
  // but FindSurface reaches only one of them, so the cache (rendered per
  // surface id) and the renderer (which looks the text up) would answer
  // differently. The index must be strictly sorted.
  ASSERT_GE(store_->np.surface_count(), 2u);
  CanonStore twins = *store_;
  const std::vector<uint32_t>& order = twins.np.surface_order;
  twins.np.surface_text[order[1]] = twins.np.surface_text[order[0]];
  EXPECT_FALSE(ValidateCanonStore(twins).ok());
  Result<CanonStore> loaded = DeserializeSnapshot(SerializeSnapshot(twins));
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("repeats"), std::string::npos)
      << loaded.status();
}

TEST_F(ServeWorld, SeededPayloadMutantsFailCleanlyOrServeSafely) {
  const std::string snapshot = SerializeSnapshot(*store_);
  const std::string payload = snapshot.substr(kSnapshotHeaderBytes);
  ASSERT_TRUE(LoadAndServe(Reseal(snapshot, payload)).ok());

  std::mt19937_64 rng(20211);
  auto pick = [&rng](size_t bound) {
    return static_cast<size_t>(rng() % std::max<size_t>(bound, 1));
  };
  constexpr size_t kPerKind = 300;
  size_t loaded = 0;
  size_t rejected = 0;
  for (size_t kind = 0; kind < 4; ++kind) {
    for (size_t m = 0; m < kPerKind; ++m) {
      std::string mutant = payload;
      switch (kind) {
        case 0:  // truncate
          mutant.resize(pick(mutant.size()));
          break;
        case 1: {  // flip 1-4 bits
          const size_t flips = 1 + pick(4);
          for (size_t f = 0; f < flips; ++f) {
            mutant[pick(mutant.size())] ^=
                static_cast<char>(1u << pick(8));
          }
          break;
        }
        case 2: {  // splice: overwrite a range with bytes from elsewhere
          const size_t len = 1 + pick(16);
          const size_t from = pick(mutant.size() - len);
          const size_t to = pick(mutant.size() - len);
          mutant.replace(to, len, payload, from, len);
          break;
        }
        default: {  // duplicate a range in place
          const size_t len = 1 + pick(16);
          const size_t at = pick(mutant.size() - len);
          mutant.insert(at, payload, at, len);
          break;
        }
      }
      SCOPED_TRACE("mutation kind " + std::to_string(kind) + " #" +
                   std::to_string(m));
      if (LoadAndServe(Reseal(snapshot, mutant)).ok()) {
        ++loaded;
      } else {
        ++rejected;
      }
    }
  }
  // Most mutants must be caught; a few (a flipped mention count, a
  // different link id) are still well-formed stores.
  EXPECT_GT(rejected, loaded);
}

// ---------- JSON helpers -----------------------------------------------------

TEST(JsonTest, EscapesSpecials) {
  EXPECT_EQ(JsonQuote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(JsonQuote(std::string_view("\x01", 1)), "\"\\u0001\"");
  // Runs that need no escape, UTF-8 included, pass through verbatim
  // around the escaped bytes.
  EXPECT_EQ(JsonQuote(""), "\"\"");
  EXPECT_EQ(JsonQuote("Z\xc3\xbcrich"), "\"Z\xc3\xbcrich\"");
  EXPECT_EQ(JsonQuote("\tstart\x1f" "mid\r\x7f" "end\\"),
            "\"\\tstart\\u001fmid\\r\x7f" "end\\\\\"");
}

TEST(JsonTest, LooksLikeJsonAcceptsAndRejects) {
  EXPECT_TRUE(LooksLikeJson("{\"a\":[1,2,{\"b\":\"}\"}]}"));
  EXPECT_TRUE(LooksLikeJson("  [1,2,3]\n"));
  EXPECT_FALSE(LooksLikeJson("plain text"));
  EXPECT_FALSE(LooksLikeJson("{\"a\":1"));
  EXPECT_FALSE(LooksLikeJson("{\"a\":1}}"));
  EXPECT_FALSE(LooksLikeJson("{} trailing"));
}

// ---------- request routing (no sockets) -------------------------------------

TEST_F(ServeWorld, RoutingAnswersAndErrors) {
  ServeCounters counters;
  int status = 0;
  // /stats works before any store is published.
  std::string body =
      HandleCanonRequest(nullptr, "GET", "/stats", counters, &status);
  EXPECT_EQ(status, 200);
  EXPECT_TRUE(LooksLikeJson(body)) << body;
  EXPECT_NE(body.find("\"published\":false"), std::string::npos);
  // Data endpoints 503 before a store exists.
  body = HandleCanonRequest(nullptr, "GET", "/lookup?surface=umd", counters,
                            &status);
  EXPECT_EQ(status, 503);
  EXPECT_TRUE(LooksLikeJson(body));
  // Unknown endpoint, bad method, missing/invalid parameters.
  body = HandleCanonRequest(store_, "GET", "/nope", counters, &status);
  EXPECT_EQ(status, 404);
  body = HandleCanonRequest(store_, "POST", "/lookup?surface=x", counters,
                            &status);
  EXPECT_EQ(status, 405);
  body = HandleCanonRequest(store_, "GET", "/lookup", counters, &status);
  EXPECT_EQ(status, 400);
  body = HandleCanonRequest(store_, "GET", "/lookup?surface=x&kind=zz",
                            counters, &status);
  EXPECT_EQ(status, 400);
  body = HandleCanonRequest(store_, "GET", "/cluster?id=abc", counters,
                            &status);
  EXPECT_EQ(status, 400);
  body = HandleCanonRequest(store_, "GET", "/cluster?id=99999", counters,
                            &status);
  EXPECT_EQ(status, 404);
  // Correct answers.
  body = HandleCanonRequest(store_, "GET",
                            "/lookup?surface=UMD&kind=np", counters, &status);
  EXPECT_EQ(status, 200);
  EXPECT_TRUE(LooksLikeJson(body)) << body;
  EXPECT_NE(body.find("university of maryland"), std::string::npos) << body;
  body = HandleCanonRequest(store_, "GET",
                            "/link?surface=University%20of%20Maryland",
                            counters, &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"link\":{"), std::string::npos) << body;
  body = HandleCanonRequest(store_, "GET", "/lookup?surface=zzz", counters,
                            &status);
  EXPECT_EQ(status, 404);
  EXPECT_TRUE(LooksLikeJson(body));
}

// ---------- HTTP server ------------------------------------------------------

TEST_F(ServeWorld, ServerAnswersOverHttp) {
  ServeOptions options;
  options.num_workers = 2;
  CanonServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);
  server.Publish(std::make_shared<const CanonStore>(*store_));

  Result<HttpResponse> lookup = HttpGet(
      server.port(), "/lookup?surface=" + UrlEncode("University of Maryland"));
  ASSERT_TRUE(lookup.ok()) << lookup.status();
  EXPECT_EQ(lookup.ValueOrDie().status, 200);
  EXPECT_TRUE(LooksLikeJson(lookup.ValueOrDie().body))
      << lookup.ValueOrDie().body;
  EXPECT_NE(lookup.ValueOrDie().body.find("UMD"), std::string::npos)
      << lookup.ValueOrDie().body;

  Result<HttpResponse> stats = HttpGet(server.port(), "/stats");
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats.ValueOrDie().status, 200);
  EXPECT_TRUE(LooksLikeJson(stats.ValueOrDie().body));
  EXPECT_NE(stats.ValueOrDie().body.find("\"published\":true"),
            std::string::npos);

  Result<HttpResponse> missing =
      HttpGet(server.port(), "/lookup?surface=zzz");
  ASSERT_TRUE(missing.ok()) << missing.status();
  EXPECT_EQ(missing.ValueOrDie().status, 404);

  // /stats is a scrape, not a data-path request.
  const ServeCounters counters = server.counters();
  EXPECT_GE(counters.requests, 2u);
  EXPECT_GE(counters.scrapes, 1u);
  EXPECT_GE(counters.ok, 2u);
  EXPECT_GE(counters.not_found, 1u);
  server.Stop();
}

TEST_F(ServeWorld, MetricsEndpointExposesPrometheusFamilies) {
  ServeOptions options;
  options.num_workers = 2;
  CanonServer server(options);
  ASSERT_TRUE(server.Start().ok());
  server.Publish(std::make_shared<const CanonStore>(*store_));

  // Drive the data path so counters and latency histograms move.
  Result<HttpResponse> hit = HttpGet(
      server.port(), "/lookup?surface=" + UrlEncode("UMD"));
  ASSERT_TRUE(hit.ok()) << hit.status();
  ASSERT_EQ(hit.ValueOrDie().status, 200);
  Result<HttpResponse> miss = HttpGet(server.port(), "/lookup?surface=zzz");
  ASSERT_TRUE(miss.ok()) << miss.status();
  ASSERT_EQ(miss.ValueOrDie().status, 404);

  Result<HttpResponse> scrape = HttpGet(server.port(), "/metrics");
  ASSERT_TRUE(scrape.ok()) << scrape.status();
  EXPECT_EQ(scrape.ValueOrDie().status, 200);
  const std::string& body = scrape.ValueOrDie().body;
  EXPECT_NE(body.find("# TYPE jocl_requests_total counter"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("jocl_requests_total 2\n"), std::string::npos) << body;
  EXPECT_NE(body.find("jocl_responses_total{code=\"200\"}"),
            std::string::npos);
  EXPECT_NE(body.find("jocl_responses_total{code=\"404\"} 1\n"),
            std::string::npos)
      << body;
  // Per-endpoint latency histograms: cumulative buckets, +Inf, sum, count.
  EXPECT_NE(body.find("# TYPE jocl_request_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(body.find("jocl_request_latency_seconds_bucket{"
                      "endpoint=\"/lookup\",le=\"+Inf\"} 2\n"),
            std::string::npos)
      << body;
  EXPECT_NE(
      body.find("jocl_request_latency_seconds_count{endpoint=\"/lookup\"} 2"),
      std::string::npos)
      << body;
  EXPECT_NE(
      body.find("jocl_request_latency_seconds_sum{endpoint=\"/lookup\"}"),
      std::string::npos);
  // Store gauges: the published generation is 7 in this world.
  EXPECT_NE(body.find("jocl_generation 7\n"), std::string::npos) << body;
  EXPECT_NE(body.find("jocl_published 1\n"), std::string::npos) << body;
  // Publication cost: one pre-render timed, and the arena it produced.
  EXPECT_NE(body.find("jocl_publish_render_seconds_count 1\n"),
            std::string::npos)
      << body;
  const size_t arena_bytes = BuildResponseCache(*store_).arena_bytes();
  EXPECT_NE(body.find("jocl_response_arena_bytes " +
                      std::to_string(arena_bytes) + "\n"),
            std::string::npos)
      << body;

  // /metrics itself lands on the scrape counter, not the data path.
  const ServeCounters counters = server.counters();
  EXPECT_EQ(counters.requests, 2u);
  EXPECT_GE(counters.scrapes, 1u);

  // A second scrape sees the first one counted.
  Result<HttpResponse> again = HttpGet(server.port(), "/metrics");
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_NE(again.ValueOrDie().body.find("jocl_scrapes_total"),
            std::string::npos);
  EXPECT_EQ(server.counters().requests, 2u);
  server.Stop();
}

TEST_F(ServeWorld, MetricsRecordingDoesNotAllocate) {
  // The per-request instrumentation the event loop runs — counter adds
  // and a histogram record — must never touch the heap (same bar as the
  // cached hot path; counted by the replaced operator new).
  MetricsRegistry registry;
  Counter* requests = registry.AddCounter("probe_requests_total", "", "");
  Histogram* latency = registry.AddHistogram(
      "probe_latency_seconds", "endpoint=\"/lookup\"", "");
  // Warm-up: the first call pins this thread's cell slot.
  requests->Add();
  latency->Record(4096);

  const uint64_t allocations_before = g_thread_allocations;
  for (int i = 0; i < 1000; ++i) {
    requests->Add();
    latency->Record(MonotonicNanos() % (1u << 30));
  }
  EXPECT_EQ(g_thread_allocations, allocations_before)
      << "metrics recording allocated on the heap";
}

// ---------- acceptance: concurrent readers across ingestion swaps ------------

TEST_F(ServeWorld, ConcurrentReadersSurviveStoreSwapsMidFlight) {
  // An ingestion session over the world's triples, published batch by
  // batch; every response a reader observes must be byte-equal to the
  // deterministic answer of SOME published generation (or the canned
  // not-found body) — never torn, mixed or blocking.
  ServeOptions options;
  options.num_workers = 4;
  CanonServer server(options);
  ASSERT_TRUE(server.Start().ok());

  const std::string lookup_target =
      "/lookup?surface=" + UrlEncode("University of Maryland");
  const std::string link_target = "/link?surface=" + UrlEncode("U21");

  std::mutex expected_mutex;
  std::set<std::string> expected_bodies;
  auto remember = [&](const CanonStore& store) {
    ServeCounters counters;
    int status = 0;
    std::lock_guard<std::mutex> lock(expected_mutex);
    expected_bodies.insert(HandleCanonRequest(
        &store, "GET", "/lookup?surface=University%20of%20Maryland",
        counters, &status));
    expected_bodies.insert(HandleCanonRequest(&store, "GET",
                                              "/link?surface=U21", counters,
                                              &status));
  };

  JoclSession session(dataset_, signals_);
  session.SetPublishCallback([&](const JoclSession& s) {
    auto store = std::make_shared<const CanonStore>(BuildCanonStore(
        s.problem(), s.result(), dataset_->ckb, s.generation()));
    remember(*store);           // expected set grows before the swap…
    server.Publish(std::move(store));  // …so readers never see a surprise
  });
  ASSERT_TRUE(session.AddTriples({0}).ok());  // first store is live

  constexpr size_t kReaders = 4;
  constexpr size_t kRequestsPerReader = 120;
  std::vector<std::string> observed[kReaders];
  std::vector<std::thread> readers;
  std::atomic<int> failures{0};
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (size_t i = 0; i < kRequestsPerReader; ++i) {
        const std::string& target =
            (i % 2 == 0) ? lookup_target : link_target;
        Result<HttpResponse> response = HttpGet(server.port(), target);
        // "U21" only enters the store once triple 2 is ingested, so 404
        // (with the canned not-found body) is a correct early answer.
        if (!response.ok() ||
            (response.ValueOrDie().status != 200 &&
             response.ValueOrDie().status != 404) ||
            !LooksLikeJson(response.ValueOrDie().body)) {
          failures.fetch_add(1);
          continue;
        }
        observed[r].push_back(response.ValueOrDie().body);
      }
    });
  }
  // Swap the store mid-flight: grow, then shrink, then grow again.
  ASSERT_TRUE(session.AddTriples({1}).ok());
  ASSERT_TRUE(session.AddTriples({2}).ok());
  ASSERT_TRUE(session.RemoveTriples({2}).ok());
  ASSERT_TRUE(session.AddTriples({2}).ok());
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(failures.load(), 0);
  std::lock_guard<std::mutex> lock(expected_mutex);
  ASSERT_GE(expected_bodies.size(), 2u);
  size_t total = 0;
  for (size_t r = 0; r < kReaders; ++r) {
    total += observed[r].size();
    for (const std::string& body : observed[r]) {
      EXPECT_TRUE(expected_bodies.count(body) == 1)
          << "torn or stale-unknown response: " << body;
    }
  }
  EXPECT_EQ(total, kReaders * kRequestsPerReader);
  const ServeCounters counters = server.counters();
  EXPECT_GE(counters.publishes, 5u);
  EXPECT_GE(counters.requests, total);
  server.Stop();
}

TEST_F(ServeWorld, RetrainedWeightsReachReadersWithoutDroppingRequests) {
  // The learn -> infer -> serve loop's last hop: a live session hot-swaps
  // new weights via UpdateWeights while readers keep hitting the server.
  // Every in-flight response must stay valid, and after the swap a reader
  // must observe the post-retrain generation.
  ServeOptions options;
  options.num_workers = 2;
  CanonServer server(options);
  ASSERT_TRUE(server.Start().ok());

  JoclSession session(dataset_, signals_);
  session.SetPublishCallback([&](const JoclSession& s) {
    server.Publish(std::make_shared<const CanonStore>(BuildCanonStore(
        s.problem(), s.result(), dataset_->ckb, s.generation())));
  });
  ASSERT_TRUE(session.AddTriples({0, 1, 2}).ok());
  const size_t generation_before = session.generation();

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<size_t> served{0};
  std::thread reader([&] {
    while (!stop.load()) {
      Result<HttpResponse> response = HttpGet(server.port(), "/stats");
      if (!response.ok() || response.ValueOrDie().status != 200 ||
          !LooksLikeJson(response.ValueOrDie().body)) {
        failures.fetch_add(1);
      } else {
        served.fetch_add(1);
      }
    }
  });
  // Swap only once the reader is serving, so requests straddle the swap
  // (under a loaded host the reader could otherwise start after it).
  while (served.load() == 0 && failures.load() == 0) {
    std::this_thread::yield();
  }

  // Retrain stand-in: any new weight vector exercises the same path as a
  // learner-produced one (ShardedLearner needs gold labels this
  // handcrafted world intentionally keeps minimal).
  std::vector<double> retrained = Jocl::DefaultWeights();
  retrained[WeightLayout::kAlpha1] = 2.5;
  retrained[WeightLayout::kBeta5] = 0.4;
  SessionStats stats;
  ASSERT_TRUE(session.UpdateWeights(retrained, &stats).ok());
  EXPECT_EQ(session.generation(), generation_before + 1);
  EXPECT_EQ(stats.dirty_shards, stats.shards);

  // Post-swap, readers observe the retrained generation.
  Result<HttpResponse> after = HttpGet(server.port(), "/stats");
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after.ValueOrDie().status, 200);
  EXPECT_NE(after.ValueOrDie().body.find(
                "\"generation\":" + std::to_string(session.generation())),
            std::string::npos)
      << after.ValueOrDie().body;

  stop.store(true);
  reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(served.load(), 0u);
  server.Stop();
}

// ---------- http_util: parsing the event loop relies on ---------------------

TEST(HttpUtilTest, ParseRequestHeadAppliesKeepAliveRules) {
  RequestHead head = ParseRequestHead("GET /x HTTP/1.1\r\nHost: h\r\n\r\n");
  EXPECT_TRUE(head.valid);
  EXPECT_EQ(head.method, "GET");
  EXPECT_EQ(head.target, "/x");
  EXPECT_TRUE(head.keep_alive);  // 1.1 default
  head = ParseRequestHead("GET /x HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_FALSE(head.keep_alive);
  head = ParseRequestHead("GET /x HTTP/1.0\r\nHost: h\r\n\r\n");
  EXPECT_FALSE(head.keep_alive);  // 1.0 default
  head = ParseRequestHead("GET /x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
  EXPECT_TRUE(head.keep_alive);
  head = ParseRequestHead(
      "GET /x HTTP/1.1\r\nConnection: Keep-Alive, Upgrade\r\n\r\n");
  EXPECT_TRUE(head.keep_alive);  // token list, case-insensitive
  head = ParseRequestHead(
      "POST /x HTTP/1.1\r\nContent-Length: 12\r\n\r\n");
  EXPECT_TRUE(head.valid);
  EXPECT_EQ(head.content_length, 12u);
  EXPECT_FALSE(ParseRequestHead("garbage\r\n\r\n").valid);
  // A Content-Length that overflows size_t or is not all digits leaves
  // the body's extent unknown: the head is malformed (answered 400 and
  // closed), never a zero-length body followed by a pipelined request.
  for (const char* length : {"18446744073709551616", "12abc", "-1", ""}) {
    const std::string text =
        std::string("POST /x HTTP/1.1\r\nContent-Length: ") + length +
        "\r\n\r\n";
    head = ParseRequestHead(text);
    EXPECT_FALSE(head.valid) << "Content-Length: " << length;
  }
}

TEST(HttpUtilTest, CanonTargetParserDecodesKeysAndValuesOnce) {
  std::string buffer;
  const std::string plain = "/lookup?surface=abc&kind=rp";
  CanonTarget t = ParseCanonTarget("GET", plain, &buffer);
  EXPECT_TRUE(t.is_data());
  EXPECT_EQ(t.endpoint, CanonEndpoint::kLookup);
  EXPECT_EQ(t.kind, CanonKind::kRp);
  EXPECT_EQ(t.surface, "abc");
  // No escapes: the surface aliases the target, the buffer is untouched.
  EXPECT_EQ(t.surface.data(), plain.data() + plain.find("abc"));
  EXPECT_TRUE(buffer.empty());
  t = ParseCanonTarget("GET", "/link?surface=a%20b+c", &buffer);
  EXPECT_EQ(t.endpoint, CanonEndpoint::kLink);
  EXPECT_EQ(t.surface, "a b c");
  EXPECT_EQ(t.surface.data(), buffer.data());
  // Keys decode before they are compared.
  t = ParseCanonTarget("GET", "/lookup?%73urface=UMD&k%69nd=np", &buffer);
  EXPECT_TRUE(t.is_data());
  EXPECT_EQ(t.surface, "UMD");
  t = ParseCanonTarget("GET", "/cluster?%69d=%31%32&kind=rp", &buffer);
  EXPECT_TRUE(t.is_data());
  EXPECT_EQ(t.cluster_id, 12u);
  EXPECT_EQ(t.kind, CanonKind::kRp);
  // An id past uint64 saturates (strtoull's rule): it resolves nowhere.
  t = ParseCanonTarget("GET", "/cluster?id=99999999999999999999999", &buffer);
  EXPECT_TRUE(t.is_data());
  EXPECT_EQ(t.cluster_id, UINT64_MAX);
  // Scrapes and unknown paths carry no parameters and no error.
  EXPECT_EQ(ParseCanonTarget("GET", "/stats?kind=zz", &buffer).endpoint,
            CanonEndpoint::kStats);
  EXPECT_EQ(ParseCanonTarget("GET", "/metrics", &buffer).endpoint,
            CanonEndpoint::kMetrics);
  t = ParseCanonTarget("GET", "/lookupx?surface=a", &buffer);
  EXPECT_EQ(t.endpoint, CanonEndpoint::kOther);
  EXPECT_EQ(t.path, "/lookupx");
  EXPECT_EQ(t.error_status, 0);
  // The errors, in the renderer's order: method, then kind, then the
  // endpoint's own parameter. A surface still routes past a bad kind.
  EXPECT_EQ(ParseCanonTarget("POST", "/stats", &buffer).error_status, 405);
  t = ParseCanonTarget("GET", "/lookup?kind=zz&surface=a%20b", &buffer);
  EXPECT_EQ(t.error_status, 400);
  EXPECT_EQ(t.error, "unknown kind (expected np or rp)");
  EXPECT_TRUE(t.has_surface);
  EXPECT_EQ(t.surface, "a b");
  t = ParseCanonTarget("GET", "/lookup?kind=np", &buffer);
  EXPECT_EQ(t.error_status, 400);
  EXPECT_FALSE(t.has_surface);
  EXPECT_EQ(t.error, "missing required parameter 'surface'");
  for (const char* id : {"/cluster", "/cluster?id=", "/cluster?id=1a",
                         "/cluster?id=%2B1"}) {
    t = ParseCanonTarget("GET", id, &buffer);
    EXPECT_EQ(t.error_status, 400) << id;
    EXPECT_EQ(t.error, "missing or non-numeric parameter 'id'") << id;
  }
}

// Mutated request heads and /lookup, /link and /cluster targets must
// parse without reading outside the input (the asan job checks that),
// and every mutated target must parse exactly as the allocating oracle
// (tests/support/query_reference.h) reads it.
TEST(HttpUtilTest, SeededMutantHeadsAndQueriesParseConsistently) {
  const std::string kHeads[] = {
      "GET /lookup?surface=University%20of%20Maryland&kind=np HTTP/1.1\r\n"
      "Host: localhost\r\nConnection: keep-alive\r\n\r\n",
      "GET /lookup?surface=UMD&kind=rp HTTP/1.0\r\nConnection: close\r\n"
      "Content-Length: 0\r\n\r\n",
      "POST /cluster?id=3&kind=np HTTP/1.1\r\ncontent-length: 12\r\n\r\n",
  };
  // Malformed escapes neither crash nor eat adjacent bytes: each value
  // decodes to its `want`, and then seeds mutants like the rest.
  struct Escape {
    std::string_view in;
    std::string_view want;
  };
  const Escape kEscapes[] = {
      {"abc%", "abc%"},      // bare percent at the end
      {"abc%4", "abc%4"},    // one hex digit, then EOF
      {"abc%zz", "abc%zz"},  // non-hex continuation
      {"%", "%"},
      {"%%41", "%A"},        // first % malformed, second decodes
      {"a%2zb", "a%2zb"},    // one good digit, one bad
      {"%41%", "A%"},
      {"%ff", "\xff"},       // lowercase hex
  };
  std::vector<std::string> targets = {
      "/lookup?surface=University%20of%20Maryland&kind=np",
      "/link?surface=a+b%2Bc&kind=rp&surface=x",
      "/lookup?kind=&surface=%41%",
      "/lookup?%73urface=a&surface=b&k%69nd=rp&kind=np",
      // Duplicate keys: the first wins, decoded or not.
      "/lookup?kind=np&kind=rp&surface=a&surface=b&empty=&empty=x",
      "/link?%6Bind=rp&kind=np&surface",
      "/cluster?id=%33&%69d=4&kind=rp&kind=zz",
      "/cluster?kind=np&id=18446744073709551616",
  };
  std::string buffer;
  for (const Escape& e : kEscapes) {
    const std::string target = "/lookup?surface=" + std::string(e.in);
    EXPECT_EQ(ParseCanonTarget("GET", target, &buffer).surface, e.want)
        << target;
    targets.push_back(target);
  }

  // What ParseCanonTarget must answer, read off the oracle's pairs.
  auto check = [&](std::string_view method, std::string_view target) {
    SCOPED_TRACE(std::string(method) + " " + std::string(target));
    const CanonTarget t = ParseCanonTarget(method, target, &buffer);
    const size_t qmark = target.find('?');
    const std::string_view path = target.substr(0, qmark);
    EXPECT_EQ(t.path, path);
    const CanonEndpoint endpoint =
        path == "/lookup"    ? CanonEndpoint::kLookup
        : path == "/link"    ? CanonEndpoint::kLink
        : path == "/cluster" ? CanonEndpoint::kCluster
        : path == "/stats"   ? CanonEndpoint::kStats
        : path == "/metrics" ? CanonEndpoint::kMetrics
                             : CanonEndpoint::kOther;
    EXPECT_EQ(t.endpoint, endpoint);
    if (method != "GET") {
      EXPECT_EQ(t.error_status, 405);
      return;
    }
    if (endpoint > CanonEndpoint::kCluster) {
      EXPECT_EQ(t.error_status, 0);
      return;
    }
    const QueryParams params = ParseQuery(
        qmark == std::string_view::npos ? "" : target.substr(qmark + 1));
    const std::string* surface = params.Find("surface");
    ASSERT_EQ(t.has_surface, surface != nullptr);
    if (surface != nullptr) {
      EXPECT_EQ(t.surface, *surface);
      // The view lies in the target or in the decode buffer.
      const bool in_target = t.surface.data() >= target.data() &&
                             t.surface.data() + t.surface.size() <=
                                 target.data() + target.size();
      const bool in_buffer = t.surface.data() == buffer.data() &&
                             t.surface.size() == buffer.size();
      EXPECT_TRUE(t.surface.empty() || in_target || in_buffer);
    }
    const std::string* kind = params.Find("kind");
    if (kind != nullptr && *kind != "np" && *kind != "rp") {
      EXPECT_EQ(t.error_status, 400);
      EXPECT_EQ(t.error, "unknown kind (expected np or rp)");
      return;
    }
    EXPECT_EQ(t.kind, kind != nullptr && *kind == "rp" ? CanonKind::kRp
                                                       : CanonKind::kNp);
    if (endpoint == CanonEndpoint::kCluster) {
      const std::string* id = params.Find("id");
      if (id == nullptr || id->empty() ||
          id->find_first_not_of("0123456789") != std::string::npos) {
        EXPECT_EQ(t.error_status, 400);
        return;
      }
      EXPECT_EQ(t.cluster_id, std::strtoull(id->c_str(), nullptr, 10));
    } else if (surface == nullptr) {
      EXPECT_EQ(t.error_status, 400);
      return;
    }
    EXPECT_TRUE(t.is_data());
  };

  std::mt19937_64 rng(20211);
  size_t valid_heads = 0;
  size_t data = 0;
  size_t decoded = 0;
  size_t refused = 0;
  for (const std::string& target : targets) check("GET", target);
  for (size_t kind = 0; kind < kMutationKinds; ++kind) {
    for (size_t m = 0; m < 300; ++m) {
      SCOPED_TRACE("mutation kind " + std::to_string(kind) + " #" +
                   std::to_string(m));
      // Exactly-sized heap copies, so asan flags any over-read.
      const std::string text = Mutate(kHeads[m % 3], kind, &rng);
      const std::vector<char> bytes(text.begin(), text.end());
      const std::string_view head(bytes.data(), bytes.size());
      const RequestHead parsed = ParseRequestHead(head);
      if (parsed.valid) {
        ++valid_heads;
        for (std::string_view view :
             {parsed.method, parsed.target, parsed.version}) {
          EXPECT_GE(view.data(), head.data());
          EXPECT_LE(view.data() + view.size(), head.data() + head.size());
        }
        check(parsed.method, parsed.target);
      }

      const std::string mutant =
          Mutate(targets[m % targets.size()], kind, &rng);
      const std::vector<char> target_bytes(mutant.begin(), mutant.end());
      const std::string_view target(target_bytes.data(),
                                    target_bytes.size());
      check("GET", target);
      const CanonTarget t = ParseCanonTarget("GET", target, &buffer);
      if (t.is_data()) ++data;
      if (t.error_status != 0) ++refused;
      if (t.has_surface && !t.surface.empty() &&
          t.surface.data() == buffer.data()) {
        ++decoded;
      }
    }
  }
  EXPECT_GT(valid_heads, 0u);
  EXPECT_GT(data, 0u);
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(refused, 0u);
}

// ---------- pre-rendered response cache --------------------------------------

/// The cached hot path without sockets, as `CanonServer` runs it: parse
/// the target once, resolve it against \p store, answer from the arena.
/// False when the request is not an arena hit.
bool FindCached(const ResponseCache& cache, const CanonStore& store,
                std::string_view method, std::string_view target,
                std::string* decode_buffer, ResponseCache::Hit* hit) {
  const CanonTarget parsed = ParseCanonTarget(method, target, decode_buffer);
  if (!parsed.is_data()) return false;
  const int64_t local = ResolveCanonTarget(store, parsed);
  if (local < 0) return false;
  *hit = cache.At(parsed.kind, parsed.endpoint, static_cast<size_t>(local));
  return true;
}

/// Every canonical data target of \p store (`/lookup` and `/link` for
/// each surface, `/cluster` for each cluster, both kinds) must hit the
/// cache and answer exactly what the renderer answers: the same body,
/// its Content-Length and the store's generation.
void ExpectCacheMatchesRendererOnEveryTarget(const CanonStore& store) {
  const ResponseCache cache = BuildResponseCache(store);
  const ServeCounters no_counters;
  const std::string head_tail =
      "\r\nX-Jocl-Generation: " + std::to_string(store.generation) + "\r\n";
  std::string buffer;
  size_t checked = 0;
  auto check = [&](const std::string& target) {
    SCOPED_TRACE(target);
    ResponseCache::Hit hit;
    ASSERT_TRUE(FindCached(cache, store, "GET", target, &buffer, &hit));
    int status = 0;
    const std::string rendered =
        HandleCanonRequest(&store, "GET", target, no_counters, &status);
    ASSERT_EQ(status, 200);
    EXPECT_EQ(hit.body, rendered);
    EXPECT_TRUE(LooksLikeJson(hit.body)) << hit.body;
    EXPECT_EQ(hit.header,
              "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
              "Content-Length: " +
                  std::to_string(rendered.size()) + head_tail);
    ++checked;
  };
  for (CanonKind kind : {CanonKind::kNp, CanonKind::kRp}) {
    const std::string kind_param =
        kind == CanonKind::kNp ? "&kind=np" : "&kind=rp";
    const CanonSection& section = store.section(kind);
    for (size_t s = 0; s < section.surface_count(); ++s) {
      const std::string surface = UrlEncode(store.SurfaceText(kind, s));
      check("/lookup?surface=" + surface + kind_param);
      check("/link?surface=" + surface + kind_param);
    }
    for (size_t c = 0; c < section.cluster_count(); ++c) {
      check("/cluster?id=" + std::to_string(store.GlobalClusterId(kind, c)) +
            kind_param);
    }
  }
  EXPECT_EQ(checked, cache.entry_count());
}

TEST_F(ServeWorld, CachedResponsesAreByteIdenticalToRenderedOnes) {
  ExpectCacheMatchesRendererOnEveryTarget(*store_);
  // Shard stores speak global ids: their entries must match too.
  Result<std::vector<CanonStore>> shards = BuildShardedCanonStores(*store_, 2);
  ASSERT_TRUE(shards.ok()) << shards.status();
  for (const CanonStore& shard : shards.ValueOrDie()) {
    ExpectCacheMatchesRendererOnEveryTarget(shard);
  }

  const ResponseCache cache = BuildResponseCache(*store_);
  ASSERT_FALSE(cache.empty());
  EXPECT_GT(cache.arena_bytes(), 0u);
  const ServeCounters no_counters;
  std::string buffer;
  const std::vector<std::string> hot_targets = {
      "/lookup?surface=UMD",
      "/lookup?surface=University%20of%20Maryland&kind=np",
      "/link?surface=University%20of%20Maryland",
      "/cluster?id=0",
      "/cluster?id=0&kind=rp",
  };
  for (const std::string& target : hot_targets) {
    ResponseCache::Hit hit;
    ASSERT_TRUE(FindCached(cache, *store_, "GET", target, &buffer, &hit))
        << target;
    int status = 0;
    const std::string rendered =
        HandleCanonRequest(store_, "GET", target, no_counters, &status);
    ASSERT_EQ(status, 200) << target;
    EXPECT_EQ(hit.body, rendered) << target;
    EXPECT_NE(hit.header.find("Content-Length: " +
                              std::to_string(rendered.size())),
              std::string_view::npos)
        << hit.header;
  }
  // Everything else is a miss and falls back to the renderer: /stats,
  // unknown surfaces, malformed parameters, bad methods.
  ResponseCache::Hit hit;
  EXPECT_FALSE(FindCached(cache, *store_, "GET", "/stats", &buffer, &hit));
  EXPECT_FALSE(
      FindCached(cache, *store_, "GET", "/lookup?surface=zzz", &buffer, &hit));
  EXPECT_FALSE(FindCached(cache, *store_, "GET", "/lookup", &buffer, &hit));
  EXPECT_FALSE(
      FindCached(cache, *store_, "GET", "/cluster?id=99999", &buffer, &hit));
  EXPECT_FALSE(
      FindCached(cache, *store_, "GET", "/cluster?id=abc", &buffer, &hit));
  EXPECT_FALSE(FindCached(cache, *store_, "POST", "/lookup?surface=UMD",
                          &buffer, &hit));
  // An escaped key decodes before it is compared: a hit.
  EXPECT_TRUE(FindCached(cache, *store_, "GET", "/lookup?%73urface=UMD",
                         &buffer, &hit));
}

TEST_F(ServeWorld, CachedHotPathDoesNotAllocate) {
  const ResponseCache cache = BuildResponseCache(*store_);
  const std::string raw_head =
      "GET /lookup?surface=University%20of%20Maryland HTTP/1.1\r\n"
      "Host: 127.0.0.1\r\nConnection: keep-alive\r\n\r\n";
  const std::string cluster_target = "/cluster?id=0";
  const std::string escaped_keys =
      "/lookup?%73urface=University%20of%20Maryland&k%69nd=np";
  // A one-triple store whose subject decodes to more than 2048 bytes.
  std::string long_surface;
  while (long_surface.size() <= 2048) long_surface += "University of Maryland ";
  JoclProblem problem;
  problem.triples = {0};
  problem.subject_surfaces = {long_surface};
  problem.predicate_surfaces = {"locate in"};
  problem.object_surfaces = {"Maryland"};
  problem.subject_of = {0};
  problem.predicate_of = {0};
  problem.object_of = {0};
  JoclResult result;
  result.triples = problem.triples;
  result.np_cluster = {0, 1};
  result.np_link = {kNilId, dataset_->ckb.FindEntityByName("maryland")};
  result.rp_cluster = {0};
  result.rp_link = {kNilId};
  const CanonStore long_store = BuildCanonStore(problem, result, dataset_->ckb);
  const ResponseCache long_cache = BuildResponseCache(long_store);
  const std::string long_target = "/lookup?surface=" + UrlEncode(long_surface);

  std::string buffer;  // the event thread's decode buffer
  ResponseCache::Hit hit;
  // Warm-up, and prove these are hits at all.
  RequestHead head = ParseRequestHead(raw_head);
  ASSERT_TRUE(head.valid);
  ASSERT_TRUE(
      FindCached(cache, *store_, head.method, head.target, &buffer, &hit));
  ASSERT_TRUE(FindCached(cache, *store_, "GET", cluster_target, &buffer, &hit));
  ASSERT_TRUE(FindCached(cache, *store_, "GET", escaped_keys, &buffer, &hit));
  ASSERT_TRUE(
      FindCached(long_cache, long_store, "GET", long_target, &buffer, &hit));
  EXPECT_NE(hit.body.find("University of Maryland University"),
            std::string_view::npos);

  // The steady-state serving path: parse head -> parse the target once
  // (escapes decoded into the reused buffer) -> resolve -> hand the
  // arena views to writev. Zero heap allocations, counted by the
  // replaced global operator new on this thread.
  const uint64_t allocations_before = g_thread_allocations;
  for (int i = 0; i < 1000; ++i) {
    const RequestHead request = ParseRequestHead(raw_head);
    FindCached(cache, *store_, request.method, request.target, &buffer, &hit);
    FindCached(cache, *store_, "GET", cluster_target, &buffer, &hit);
    FindCached(cache, *store_, "GET", escaped_keys, &buffer, &hit);
    FindCached(long_cache, long_store, "GET", long_target, &buffer, &hit);
  }
  EXPECT_EQ(g_thread_allocations, allocations_before)
      << "cached hot path allocated on the heap";
}

TEST_F(ServeWorld, EscapedSplitAndNilClustersRenderIdenticallyFromCache) {
  // A hand-written store with the cases the generated worlds lack:
  // surfaces that need JSON escapes (quote, backslash, control byte) and
  // UTF-8, a surface whose mentions carry two cluster labels, clusters
  // linked to NIL, and a tied link vote.
  const CuratedKb& ckb = dataset_->ckb;
  JoclProblem problem;
  problem.triples = {0, 1, 2, 3};
  problem.subject_surfaces = {"say \"hi\"", "back\\slash",
                              std::string("ctl\x01" "byte"),
                              "Z\xc3\xbcrich"};
  problem.predicate_surfaces = {"tab\there", "locate in"};
  problem.object_surfaces = {"Maryland", "Z\xc3\xbcrich"};
  problem.subject_of = {0, 1, 2, 3};
  problem.predicate_of = {0, 1, 1, 0};
  problem.object_of = {0, 1, 0, 0};
  const int64_t umd = ckb.FindEntityByName("university of maryland");
  const int64_t maryland = ckb.FindEntityByName("maryland");
  JoclResult result;
  result.triples = problem.triples;
  // "Maryland" is labelled 1 in triples 0 and 2 but 9 in triple 3.
  result.np_cluster = {5, 1, 6, 2, 7, 1, 2, 9};
  result.np_link = {kNilId, maryland, kNilId, kNilId,
                    umd,    maryland, kNilId, kNilId};
  result.rp_cluster = {0, 3, 3, 0};
  result.rp_link = {ckb.FindRelationByName("location.contained_by"), kNilId,
                    ckb.FindRelationByName("organizations_founded"),
                    ckb.FindRelationByName("organizations_founded")};

  const CanonStore store =
      BuildCanonStore(problem, result, ckb, /*generation=*/11);
  ASSERT_TRUE(ValidateCanonStore(store).ok());
  EXPECT_EQ(SerializeSnapshot(store),
            SerializeSnapshot(
                BuildCanonStoreReference(problem, result, ckb, 11)));
  const int64_t split = store.FindSurface(CanonKind::kNp, "Maryland");
  ASSERT_GE(split, 0);
  EXPECT_EQ(store.ClustersOf(CanonKind::kNp, split).size(), 2u);
  size_t nil_clusters = 0;
  for (size_t c = 0; c < store.np.cluster_count(); ++c) {
    if (store.ClusterLink(CanonKind::kNp, c) == kNilId) ++nil_clusters;
  }
  EXPECT_GE(nil_clusters, 2u);

  ExpectCacheMatchesRendererOnEveryTarget(store);
  Result<std::vector<CanonStore>> shards = BuildShardedCanonStores(store, 2);
  ASSERT_TRUE(shards.ok()) << shards.status();
  for (const CanonStore& shard : shards.ValueOrDie()) {
    ExpectCacheMatchesRendererOnEveryTarget(shard);
  }

  // The escapes reach the wire.
  int status = 0;
  const ServeCounters no_counters;
  EXPECT_NE(HandleCanonRequest(&store, "GET",
                               "/lookup?surface=" + UrlEncode("say \"hi\""),
                               no_counters, &status)
                .find("\"surface\":\"say \\\"hi\\\"\""),
            std::string::npos);
  EXPECT_NE(HandleCanonRequest(
                &store, "GET",
                "/link?surface=" + UrlEncode(std::string("ctl\x01" "byte")),
                no_counters, &status)
                .find("\"ctl\\u0001byte\""),
            std::string::npos);
}

// ---------- a generated session's generations --------------------------------
//
// A ReVerb45K-like world at scale 0.2 ingested through a JoclSession:
// prefill, then add and retract batches. Each published generation is
// built by BuildCanonStore and by the string-keyed reference builder.
class SessionStores : public ::testing::Test {
 protected:
  struct Generation {
    CanonStore store;
    CanonStore reference;
  };

  static void SetUpTestSuite() {
    dataset_ = new Dataset(GenerateReVerb45K(0.2).MoveValueOrDie());
    signals_ = new SignalBundle(BuildSignals(*dataset_).MoveValueOrDie());
    generations_ = new std::vector<Generation>();
    JoclSession session(dataset_, signals_);
    session.SetPublishCallback([](const JoclSession& s) {
      generations_->push_back(
          {BuildCanonStore(s.problem(), s.result(), dataset_->ckb,
                           s.generation()),
           BuildCanonStoreReference(s.problem(), s.result(), dataset_->ckb,
                                    s.generation())});
    });
    const std::vector<size_t>& stream = dataset_->test_triples;
    auto slice = [&](size_t begin_eighth, size_t end_eighth) {
      return std::vector<size_t>(
          stream.begin() + static_cast<std::ptrdiff_t>(
                               begin_eighth * stream.size() / 8),
          stream.begin() + static_cast<std::ptrdiff_t>(
                               end_eighth * stream.size() / 8));
    };
    ASSERT_TRUE(session.AddTriples(slice(0, 4)).ok());     // prefill
    ASSERT_TRUE(session.AddTriples(slice(4, 6)).ok());
    ASSERT_TRUE(session.RemoveTriples(slice(1, 2)).ok());
    ASSERT_TRUE(session.AddTriples(slice(6, 8)).ok());
    ASSERT_TRUE(session.RemoveTriples(slice(5, 7)).ok());
    ASSERT_EQ(generations_->size(), 5u);
    ASSERT_GT(generations_->back().store.np.surface_count(), 100u);
    ASSERT_GT(generations_->back().store.rp.cluster_count(), 10u);
  }

  static void TearDownTestSuite() {
    delete generations_;
    delete signals_;
    delete dataset_;
    generations_ = nullptr;
    signals_ = nullptr;
    dataset_ = nullptr;
  }

  static Dataset* dataset_;
  static SignalBundle* signals_;
  static std::vector<Generation>* generations_;
};

Dataset* SessionStores::dataset_ = nullptr;
SignalBundle* SessionStores::signals_ = nullptr;
std::vector<SessionStores::Generation>* SessionStores::generations_ = nullptr;

TEST_F(SessionStores, BuilderMatchesStringKeyedOracle) {
  for (const Generation& g : *generations_) {
    SCOPED_TRACE("generation " + std::to_string(g.store.generation));
    ASSERT_TRUE(ValidateCanonStore(g.store).ok());
    EXPECT_EQ(SerializeSnapshot(g.store), SerializeSnapshot(g.reference));
    for (uint32_t n : {2u, 3u}) {
      Result<std::vector<CanonStore>> shards =
          BuildShardedCanonStores(g.store, n);
      Result<std::vector<CanonStore>> reference_shards =
          BuildShardedCanonStores(g.reference, n);
      ASSERT_TRUE(shards.ok()) << shards.status();
      ASSERT_TRUE(reference_shards.ok()) << reference_shards.status();
      for (uint32_t k = 0; k < n; ++k) {
        EXPECT_EQ(SerializeSnapshot(shards.ValueOrDie()[k]),
                  SerializeSnapshot(reference_shards.ValueOrDie()[k]))
            << "shard " << k << "/" << n;
      }
    }
  }
}

TEST_F(SessionStores, CachedResponsesMatchRendererOnEveryTarget) {
  for (const Generation& g : *generations_) {
    SCOPED_TRACE("generation " + std::to_string(g.store.generation));
    ExpectCacheMatchesRendererOnEveryTarget(g.store);
  }
  Result<std::vector<CanonStore>> shards =
      BuildShardedCanonStores(generations_->back().store, 2);
  ASSERT_TRUE(shards.ok()) << shards.status();
  for (const CanonStore& shard : shards.ValueOrDie()) {
    ExpectCacheMatchesRendererOnEveryTarget(shard);
  }
}

// ---------- keep-alive over real sockets -------------------------------------

namespace {

int ConnectRaw(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval timeout;
  timeout.tv_sec = 5;
  timeout.tv_usec = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendRaw(int fd, std::string_view bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

std::string ReadUntilEof(int fd) {
  std::string out;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    out.append(buffer, static_cast<size_t>(n));
  }
  return out;
}

size_t CountOccurrences(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

}  // namespace

TEST_F(ServeWorld, KeepAliveConnectionServesManySequentialRequests) {
  ServeOptions options;
  options.num_workers = 2;
  CanonServer server(options);
  ASSERT_TRUE(server.Start().ok());
  server.Publish(std::make_shared<const CanonStore>(*store_));

  Result<HttpConnection> connected = HttpConnection::Connect(server.port());
  ASSERT_TRUE(connected.ok()) << connected.status();
  HttpConnection conn = connected.MoveValueOrDie();
  const std::string lookup =
      "/lookup?surface=" + UrlEncode("University of Maryland");
  constexpr int kRequests = 50;
  for (int i = 0; i < kRequests; ++i) {
    // Mix the cached endpoint with /stats, which renders every time.
    const std::string target = (i % 3 == 2) ? std::string("/stats") : lookup;
    Result<HttpResponse> response = conn.Get(target);
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response.ValueOrDie().status, 200);
    EXPECT_TRUE(LooksLikeJson(response.ValueOrDie().body))
        << response.ValueOrDie().body;
  }
  EXPECT_TRUE(conn.connected());
  EXPECT_EQ(conn.requests_sent(), static_cast<uint64_t>(kRequests));

  const ServeCounters counters = server.counters();
  EXPECT_EQ(counters.connections_accepted, 1u);
  // Every third request was a /stats scrape; the two counters split the
  // stream between them.
  EXPECT_GE(counters.requests + counters.scrapes,
            static_cast<uint64_t>(kRequests));
  EXPECT_GT(counters.scrapes, 0u);
  EXPECT_GE(counters.connections_reused, static_cast<uint64_t>(kRequests - 1));
  EXPECT_GT(counters.cache_hits, 0u);
  EXPECT_GT(counters.cache_misses, 0u);  // the /stats renders
  EXPECT_GT(counters.writev_bytes, 0u);
  server.Stop();
}

// ---------- client response framing against a canned server -----------------

namespace {

// A loopback listener on an ephemeral port that answers one connection's
// request head with fixed bytes, then closes the connection.
class CannedServer {
 public:
  explicit CannedServer(std::string response) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t length = sizeof(addr);
    if (listen_fd_ < 0 ||
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), length) < 0 ||
        ::listen(listen_fd_, 1) < 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      &length) < 0) {
      return;
    }
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, response = std::move(response)] {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      std::string head;
      char buffer[1024];
      while (head.find("\r\n\r\n") == std::string::npos) {
        const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
        if (n <= 0) break;
        head.append(buffer, static_cast<size_t>(n));
      }
      SendRaw(fd, response);
      ::close(fd);
    });
  }
  ~CannedServer() {
    // Wakes a pending accept() when no client ever connected.
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    if (thread_.joinable()) thread_.join();
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

  int port() const { return port_; }

 private:
  int listen_fd_ = -1;
  int port_ = -1;
  std::thread thread_;
};

}  // namespace

TEST(HttpClientTest, OverflowingContentLengthIsAnIOError) {
  // 2^64 + 1: accumulated digit by digit into a size_t it wraps to 1, and
  // the one-byte body would read as a complete response.
  CannedServer server(
      "HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551617\r\n\r\nx");
  ASSERT_GT(server.port(), 0);
  Result<HttpConnection> connected = HttpConnection::Connect(server.port());
  ASSERT_TRUE(connected.ok()) << connected.status();
  HttpConnection conn = connected.MoveValueOrDie();
  Result<HttpResponse> response = conn.Get("/stats");
  ASSERT_FALSE(response.ok()) << response.ValueOrDie().body;
  EXPECT_EQ(response.status().code(), StatusCode::kIOError);
  EXPECT_FALSE(conn.connected());
}

TEST(HttpClientTest, OverflowingGenerationReadsAsAbsent) {
  CannedServer server(
      "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
      "X-Jocl-Generation: 99999999999999999999\r\n\r\n{}");
  ASSERT_GT(server.port(), 0);
  Result<HttpResponse> response = HttpGet(server.port(), "/stats");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response.ValueOrDie().status, 200);
  EXPECT_EQ(response.ValueOrDie().body, "{}");
  EXPECT_EQ(response.ValueOrDie().generation, -1);
}

TEST_F(ServeWorld, PipelinedRequestsAreAnsweredInOrder) {
  ServeOptions options;
  options.num_workers = 1;
  CanonServer server(options);
  ASSERT_TRUE(server.Start().ok());
  server.Publish(std::make_shared<const CanonStore>(*store_));

  const int fd = ConnectRaw(server.port());
  ASSERT_GE(fd, 0);
  // Three requests in one burst; the last one closes the connection so
  // EOF frames the full pipeline for the reader.
  const std::string batch =
      "GET /lookup?surface=UMD HTTP/1.1\r\nHost: h\r\n\r\n"
      "GET /cluster?id=0 HTTP/1.1\r\nHost: h\r\n\r\n"
      "GET /stats HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n";
  ASSERT_TRUE(SendRaw(fd, batch));
  const std::string raw = ReadUntilEof(fd);
  ::close(fd);

  EXPECT_EQ(CountOccurrences(raw, "HTTP/1.1 200 OK"), 3u) << raw;
  const size_t first = raw.find("\"surface\":\"UMD\"");
  const size_t second = raw.find("\"cluster\":{");
  const size_t third = raw.find("\"published\":true");
  EXPECT_NE(first, std::string::npos) << raw;
  EXPECT_NE(second, std::string::npos) << raw;
  EXPECT_NE(third, std::string::npos) << raw;
  EXPECT_LT(first, second);
  EXPECT_LT(second, third);
  server.Stop();
}

TEST_F(ServeWorld, SlowLorisAndIdleConnectionsTimeOut) {
  ServeOptions options;
  options.num_workers = 1;
  options.idle_timeout_ms = 100;
  CanonServer server(options);
  ASSERT_TRUE(server.Start().ok());
  server.Publish(std::make_shared<const CanonStore>(*store_));

  // Slow loris: a request head that trickles in and never completes.
  const int slow_fd = ConnectRaw(server.port());
  ASSERT_GE(slow_fd, 0);
  ASSERT_TRUE(SendRaw(slow_fd, "GET /stats HTT"));
  const std::string raw = ReadUntilEof(slow_fd);  // server must close
  ::close(slow_fd);
  EXPECT_NE(raw.find("HTTP/1.1 408"), std::string::npos) << raw;

  // Plain idle connection: closed quietly, no response owed.
  const int idle_fd = ConnectRaw(server.port());
  ASSERT_GE(idle_fd, 0);
  EXPECT_EQ(ReadUntilEof(idle_fd), "");
  ::close(idle_fd);

  EXPECT_GE(server.counters().connections_timed_out, 2u);
  server.Stop();
}

TEST_F(ServeWorld, OversizedRequestHeadIsRejectedWith431) {
  ServeOptions options;
  options.num_workers = 1;
  CanonServer server(options);  // default 16 KiB cap
  ASSERT_TRUE(server.Start().ok());
  server.Publish(std::make_shared<const CanonStore>(*store_));

  const int fd = ConnectRaw(server.port());
  ASSERT_GE(fd, 0);
  const std::string huge =
      "GET /stats HTTP/1.1\r\nX-Filler: " + std::string(18 * 1024, 'x');
  ASSERT_TRUE(SendRaw(fd, huge));  // no terminator: the cap must trip
  const std::string raw = ReadUntilEof(fd);
  ::close(fd);
  EXPECT_NE(raw.find("HTTP/1.1 431"), std::string::npos) << raw;
  EXPECT_GE(server.counters().bad_request, 1u);
  server.Stop();
}

TEST_F(ServeWorld, OversizedTargetLinesAreRejectedAtTheCap) {
  ServeOptions options;
  options.num_workers = 1;
  options.max_request_bytes = 512;
  CanonServer server(options);
  ASSERT_TRUE(server.Start().ok());
  server.Publish(std::make_shared<const CanonStore>(*store_));

  // Query sizes straddling the cap; the expectation derives from the
  // full head size, so both sides of the boundary are exercised.
  const size_t kSurfaceLengths[] = {8, 200, 400, 470, 520, 2048};
  for (const size_t length : kSurfaceLengths) {
    const std::string head =
        "GET /lookup?surface=" + std::string(length, 'z') +
        " HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n";
    const bool expect_431 = head.size() > options.max_request_bytes;
    const int fd = ConnectRaw(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(SendRaw(fd, head));
    const std::string raw = ReadUntilEof(fd);
    ::close(fd);
    if (expect_431) {
      EXPECT_NE(raw.find("HTTP/1.1 431"), std::string::npos)
          << "surface length " << length << ": " << raw.substr(0, 64);
    } else {
      // Inside the cap: an ordinary answer (404 — no such surface).
      EXPECT_NE(raw.find("HTTP/1.1 404"), std::string::npos)
          << "surface length " << length << ": " << raw.substr(0, 64);
    }
  }
  server.Stop();
}

TEST_F(ServeWorld, PipelinedRequestsSurviveEveryByteSplit) {
  ServeOptions options;
  options.num_workers = 1;
  CanonServer server(options);
  ASSERT_TRUE(server.Start().ok());
  server.Publish(std::make_shared<const CanonStore>(*store_));

  // Two pipelined requests; the second closes the connection so EOF
  // frames the pair. Splitting the burst at every byte boundary walks
  // the parser through every partial-head and partial-pipeline state.
  const std::string batch =
      "GET /lookup?surface=UMD HTTP/1.1\r\nHost: h\r\n\r\n"
      "GET /stats HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n";
  for (size_t split = 1; split < batch.size(); ++split) {
    const int fd = ConnectRaw(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(SendRaw(fd, std::string_view(batch).substr(0, split)));
    ASSERT_TRUE(SendRaw(fd, std::string_view(batch).substr(split)));
    const std::string raw = ReadUntilEof(fd);
    ::close(fd);
    EXPECT_EQ(CountOccurrences(raw, "HTTP/1.1 200 OK"), 2u)
        << "split at byte " << split;
    const size_t first = raw.find("\"surface\":\"UMD\"");
    const size_t second = raw.find("\"published\":true");
    EXPECT_NE(first, std::string::npos) << "split at byte " << split;
    EXPECT_NE(second, std::string::npos) << "split at byte " << split;
    EXPECT_LT(first, second) << "split at byte " << split;
  }
  server.Stop();
}

TEST_F(ServeWorld, PrerenderOffServesIdenticalBytesToPrerenderOn) {
  ServeOptions cached_options;
  cached_options.num_workers = 1;
  ServeOptions rendered_options;
  rendered_options.num_workers = 1;
  rendered_options.prerender = false;
  CanonServer cached_server(cached_options);
  CanonServer rendered_server(rendered_options);
  ASSERT_TRUE(cached_server.Start().ok());
  ASSERT_TRUE(rendered_server.Start().ok());
  auto store = std::make_shared<const CanonStore>(*store_);
  cached_server.Publish(store);
  rendered_server.Publish(store);

  const std::vector<std::string> targets = {
      "/lookup?surface=" + UrlEncode("University of Maryland"),
      "/link?surface=" + UrlEncode("UMD"),
      "/cluster?id=0",
      "/lookup?surface=zzz",  // 404s render identically too
  };
  for (const std::string& target : targets) {
    Result<HttpResponse> from_cache = HttpGet(cached_server.port(), target);
    Result<HttpResponse> from_render =
        HttpGet(rendered_server.port(), target);
    ASSERT_TRUE(from_cache.ok()) << from_cache.status();
    ASSERT_TRUE(from_render.ok()) << from_render.status();
    EXPECT_EQ(from_cache.ValueOrDie().status,
              from_render.ValueOrDie().status)
        << target;
    EXPECT_EQ(from_cache.ValueOrDie().body, from_render.ValueOrDie().body)
        << target;
  }
  EXPECT_GT(cached_server.counters().cache_hits, 0u);
  EXPECT_EQ(rendered_server.counters().cache_hits, 0u);
  cached_server.Stop();
  rendered_server.Stop();
}

// ---------- acceptance: keep-alive + cached path across republish ------------

TEST_F(ServeWorld, KeepAliveCachedReadersNeverMixGenerations) {
  // The PR 4 mixed-generation invariant, extended to the pre-rendered
  // cache and keep-alive connections: every body observed over a
  // long-lived connection while the bundle is republished underneath
  // must match SOME published generation byte-for-byte — the cache and
  // its store swap under one pointer, so a cached body can never pair
  // with a mismatched generation.
  ServeOptions options;
  options.num_workers = 4;  // prerender stays on (the default)
  CanonServer server(options);
  ASSERT_TRUE(server.Start().ok());

  const std::string lookup_target =
      "/lookup?surface=" + UrlEncode("University of Maryland");
  const std::string link_target = "/link?surface=" + UrlEncode("U21");

  std::mutex expected_mutex;
  std::set<std::string> expected_bodies;
  auto remember = [&](const CanonStore& store) {
    ServeCounters no_counters;
    int status = 0;
    std::lock_guard<std::mutex> lock(expected_mutex);
    expected_bodies.insert(HandleCanonRequest(
        &store, "GET", "/lookup?surface=University%20of%20Maryland",
        no_counters, &status));
    expected_bodies.insert(HandleCanonRequest(
        &store, "GET", "/link?surface=U21", no_counters, &status));
  };

  JoclSession session(dataset_, signals_);
  session.SetPublishCallback([&](const JoclSession& s) {
    auto store = std::make_shared<const CanonStore>(BuildCanonStore(
        s.problem(), s.result(), dataset_->ckb, s.generation()));
    remember(*store);
    server.Publish(std::move(store));
  });
  ASSERT_TRUE(session.AddTriples({0}).ok());

  constexpr size_t kReaders = 4;
  constexpr size_t kRequestsPerReader = 150;
  std::vector<std::string> observed[kReaders];
  std::vector<std::thread> readers;
  std::atomic<int> failures{0};
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      HttpConnection conn;
      for (size_t i = 0; i < kRequestsPerReader; ++i) {
        if (!conn.connected()) {
          Result<HttpConnection> fresh = HttpConnection::Connect(server.port());
          if (!fresh.ok()) {
            failures.fetch_add(1);
            continue;
          }
          conn = fresh.MoveValueOrDie();
        }
        const std::string& target =
            (i % 2 == 0) ? lookup_target : link_target;
        Result<HttpResponse> response = conn.Get(target);
        if (!response.ok() ||
            (response.ValueOrDie().status != 200 &&
             response.ValueOrDie().status != 404) ||
            !LooksLikeJson(response.ValueOrDie().body)) {
          failures.fetch_add(1);
          continue;
        }
        observed[r].push_back(response.ValueOrDie().body);
      }
    });
  }
  ASSERT_TRUE(session.AddTriples({1}).ok());
  ASSERT_TRUE(session.AddTriples({2}).ok());
  ASSERT_TRUE(session.RemoveTriples({2}).ok());
  ASSERT_TRUE(session.AddTriples({2}).ok());
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(failures.load(), 0);
  std::lock_guard<std::mutex> lock(expected_mutex);
  ASSERT_GE(expected_bodies.size(), 2u);
  size_t total = 0;
  for (size_t r = 0; r < kReaders; ++r) {
    total += observed[r].size();
    for (const std::string& body : observed[r]) {
      EXPECT_TRUE(expected_bodies.count(body) == 1)
          << "mixed-generation or torn response: " << body;
    }
  }
  EXPECT_EQ(total, kReaders * kRequestsPerReader);
  const ServeCounters counters = server.counters();
  EXPECT_GE(counters.publishes, 5u);
  EXPECT_GT(counters.cache_hits, 0u);
  EXPECT_GT(counters.connections_reused, 0u);
  server.Stop();
}

// ---------- session publish hook --------------------------------------------

TEST_F(ServeWorld, SessionPublishCallbackFiresPerSuccessfulBatch) {
  JoclSession session(dataset_, signals_);
  size_t published = 0;
  session.SetPublishCallback([&](const JoclSession& s) {
    ++published;
    EXPECT_EQ(s.generation(), published);
    EXPECT_EQ(s.problem().triples, s.result().triples);
  });
  ASSERT_TRUE(session.AddTriples({0, 1}).ok());
  ASSERT_TRUE(session.AddTriples({2}).ok());
  ASSERT_TRUE(session.RemoveTriples({2}).ok());
  EXPECT_EQ(published, 3u);
  session.SetPublishCallback(nullptr);
  ASSERT_TRUE(session.AddTriples({2}).ok());
  EXPECT_EQ(published, 3u);
}

}  // namespace
}  // namespace jocl
