//===- tests/SupportTests.cpp - support library unit tests ---------------===//

#include "support/FlatIndex.h"
#include "support/FunctionRef.h"
#include "support/Json.h"
#include "support/StringExtras.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <random>
#include <set>
#include <stdexcept>

using namespace denali;

TEST(StrFormat, Basic) {
  EXPECT_EQ(strFormat("x=%d", 42), "x=42");
  EXPECT_EQ(strFormat("%s-%s", "a", "b"), "a-b");
  EXPECT_EQ(strFormat("empty"), "empty");
}

TEST(StrFormat, LongOutput) {
  std::string Long(500, 'y');
  EXPECT_EQ(strFormat("%s", Long.c_str()), Long);
}

TEST(SplitString, Basic) {
  auto Pieces = splitString("a,b,,c", ",");
  ASSERT_EQ(Pieces.size(), 3u);
  EXPECT_EQ(Pieces[0], "a");
  EXPECT_EQ(Pieces[1], "b");
  EXPECT_EQ(Pieces[2], "c");
}

TEST(SplitString, MultipleSeparators) {
  auto Pieces = splitString("a b\tc", " \t");
  ASSERT_EQ(Pieces.size(), 3u);
  EXPECT_EQ(Pieces[2], "c");
}

TEST(SplitString, Empty) {
  EXPECT_TRUE(splitString("", ",").empty());
  EXPECT_TRUE(splitString(",,,", ",").empty());
}

TEST(ParseIntegerLiteral, Decimal) {
  int64_t V = 0;
  EXPECT_TRUE(parseIntegerLiteral("123", V));
  EXPECT_EQ(V, 123);
  EXPECT_TRUE(parseIntegerLiteral("-7", V));
  EXPECT_EQ(V, -7);
  EXPECT_TRUE(parseIntegerLiteral("+9", V));
  EXPECT_EQ(V, 9);
}

TEST(ParseIntegerLiteral, Hex) {
  int64_t V = 0;
  EXPECT_TRUE(parseIntegerLiteral("0xff", V));
  EXPECT_EQ(V, 255);
  EXPECT_TRUE(parseIntegerLiteral("0XAB", V));
  EXPECT_EQ(V, 0xab);
}

TEST(ParseIntegerLiteral, Rejects) {
  int64_t V = 0;
  EXPECT_FALSE(parseIntegerLiteral("", V));
  EXPECT_FALSE(parseIntegerLiteral("-", V));
  EXPECT_FALSE(parseIntegerLiteral("12a", V));
  EXPECT_FALSE(parseIntegerLiteral("0x", V));
  EXPECT_FALSE(parseIntegerLiteral("abc", V));
}

TEST(FormatConstant, SmallDecimalLargeHex) {
  EXPECT_EQ(formatConstant(7), "7");
  EXPECT_EQ(formatConstant(1023), "1023");
  EXPECT_EQ(formatConstant(0xffff), "0xffff");
}

TEST(Json, BmpEscapes) {
  namespace json = support::json;
  std::string Err;
  auto V = json::parse(R"("A\u00E9\u20AC")", &Err);
  ASSERT_NE(V, nullptr) << Err;
  // A, é (2-byte UTF-8), € (3-byte UTF-8).
  EXPECT_EQ(V->stringValue(), "A\xc3\xa9\xe2\x82\xac");
}

TEST(Json, SurrogatePairCombines) {
  namespace json = support::json;
  std::string Err;
  auto V = json::parse(R"("\uD83D\uDE00")", &Err);
  ASSERT_NE(V, nullptr) << Err;
  // U+1F600 as 4-byte UTF-8.
  EXPECT_EQ(V->stringValue(), "\xf0\x9f\x98\x80");
  // Pairs at the extremes of the supplementary range: U+10000, U+10FFFF.
  auto Lo = json::parse(R"("\uD800\uDC00")", &Err);
  ASSERT_NE(Lo, nullptr) << Err;
  EXPECT_EQ(Lo->stringValue(), "\xf0\x90\x80\x80");
  auto Hi = json::parse(R"("\uDBFF\uDFFF")", &Err);
  ASSERT_NE(Hi, nullptr) << Err;
  EXPECT_EQ(Hi->stringValue(), "\xf4\x8f\xbf\xbf");
}

TEST(Json, RejectsLoneSurrogates) {
  namespace json = support::json;
  std::string Err;
  EXPECT_EQ(json::parse(R"("\uD83D")", &Err), nullptr);
  EXPECT_NE(Err.find("unpaired high surrogate"), std::string::npos) << Err;
  EXPECT_EQ(json::parse(R"("\uD83Dx")", &Err), nullptr);
  EXPECT_EQ(json::parse(R"("\uD83D\n")", &Err), nullptr);
  EXPECT_EQ(json::parse(R"("\uD83D\u0041")", &Err), nullptr);
  EXPECT_NE(Err.find("bad low surrogate"), std::string::npos) << Err;
  EXPECT_EQ(json::parse(R"("\uDE00")", &Err), nullptr);
  EXPECT_NE(Err.find("unpaired low surrogate"), std::string::npos) << Err;
  EXPECT_EQ(json::parse(R"("\u12")", &Err), nullptr);
  EXPECT_NE(Err.find("truncated"), std::string::npos) << Err;
}

TEST(Json, NumberForms) {
  namespace json = support::json;
  std::string Err;
  auto V = json::parse(R"([1e3, -0.25, 2.5e-3, 0, -7])", &Err);
  ASSERT_NE(V, nullptr) << Err;
  const auto &A = V->array();
  ASSERT_EQ(A.size(), 5u);
  EXPECT_DOUBLE_EQ(A[0].numberValue(), 1000.0);
  EXPECT_DOUBLE_EQ(A[1].numberValue(), -0.25);
  EXPECT_DOUBLE_EQ(A[2].numberValue(), 0.0025);
  EXPECT_DOUBLE_EQ(A[3].numberValue(), 0.0);
  EXPECT_DOUBLE_EQ(A[4].numberValue(), -7.0);
}

TEST(Timer, Monotonic) {
  Timer T;
  double A = T.seconds();
  double B = T.seconds();
  EXPECT_GE(B, A);
  T.reset();
  EXPECT_GE(T.seconds(), 0.0);
}

TEST(FunctionRefTest, CallsThroughWithoutOwning) {
  int Calls = 0;
  auto Inc = [&](int By) { Calls += By; return Calls; };
  FunctionRef<int(int)> Ref = Inc;
  EXPECT_EQ(Ref(2), 2);
  EXPECT_EQ(Ref(3), 5);
  EXPECT_EQ(Calls, 5);
  FunctionRef<int(int)> Empty;
  EXPECT_FALSE(static_cast<bool>(Empty));
  EXPECT_TRUE(static_cast<bool>(Ref));
}

TEST(ThreadPoolTest, RunsTasksAndReturnsResults) {
  support::ThreadPool Pool(4);
  EXPECT_EQ(Pool.numThreads(), 4u);
  std::vector<std::future<int>> Futures;
  for (int I = 0; I < 32; ++I)
    Futures.push_back(Pool.submit([I] { return I * I; }));
  for (int I = 0; I < 32; ++I)
    EXPECT_EQ(Futures[I].get(), I * I);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  support::ThreadPool Pool(0);
  EXPECT_EQ(Pool.numThreads(), 1u);
  EXPECT_EQ(Pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  support::ThreadPool Pool(2);
  auto Ok = Pool.submit([] { return 1; });
  auto Bad = Pool.submit(
      []() -> int { throw std::runtime_error("probe exploded"); });
  EXPECT_EQ(Ok.get(), 1);
  EXPECT_THROW(Bad.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(Pool.submit([] { return 2; }).get(), 2);
}

TEST(ThreadPoolTest, WorkerIdsAreStableAndInRange) {
  support::ThreadPool Pool(3);
  EXPECT_EQ(support::ThreadPool::currentWorkerId(), -1);
  std::vector<std::future<int>> Futures;
  for (int I = 0; I < 24; ++I)
    Futures.push_back(
        Pool.submit([] { return support::ThreadPool::currentWorkerId(); }));
  for (auto &F : Futures) {
    int Id = F.get();
    EXPECT_GE(Id, 0);
    EXPECT_LT(Id, 3);
  }
}

TEST(ThreadPoolTest, CancellationStopsCooperativeTask) {
  support::ThreadPool Pool(2);
  support::CancellationToken Token;
  EXPECT_FALSE(Token.isCancelled());
  std::atomic<bool> Started{false};
  // The task spins until the token fires — the shape of a SAT probe
  // polling its interrupt flag at conflict boundaries.
  auto Loops = Pool.submit([&] {
    Started = true;
    uint64_t Polls = 0;
    while (!Token.isCancelled())
      ++Polls;
    return Polls;
  });
  while (!Started)
    std::this_thread::yield();
  Token.requestCancel();
  EXPECT_GE(Loops.get(), 0u); // Returns at all == cancellation worked.
  EXPECT_TRUE(Token.isCancelled());
  // Token copies share the flag.
  support::CancellationToken Copy = Token;
  EXPECT_TRUE(Copy.isCancelled());
}

TEST(ThreadPoolTest, DiscardsQueuedTasksOnDestruction) {
  std::atomic<int> Ran{0};
  std::future<void> Abandoned;
  {
    support::ThreadPool Pool(1);
    support::CancellationToken Gate;
    auto Blocker = Pool.submit([&] {
      while (!Gate.isCancelled())
        std::this_thread::yield();
    });
    for (int I = 0; I < 8; ++I)
      Abandoned = Pool.submit([&] { ++Ran; });
    Gate.requestCancel();
    Blocker.get();
    // Destruction: the blocker finished; queued tasks may or may not have
    // started, but the pool must shut down promptly either way.
  }
  EXPECT_LE(Ran.load(), 8);
}

//===----------------------------------------------------------------------===
// FlatIndex: keys live in the owner's storage (here a vector of values;
// an id is an index into it), hashes come from the owner.
//===----------------------------------------------------------------------===

namespace {

struct IndexOwner {
  std::vector<uint64_t> Keys;
  FlatIndex Index;
  uint32_t (*HashOf)(uint64_t) = [](uint64_t K) {
    return hashFinish(hashMix(0, K));
  };

  uint32_t find(uint64_t Key) const {
    return Index.find(HashOf(Key),
                      [&](uint32_t Id) { return Keys[Id] == Key; });
  }
  /// Adds Key unless present; \returns its id either way.
  uint32_t insert(uint64_t Key) {
    uint32_t Id = static_cast<uint32_t>(Keys.size());
    uint32_t Got = Index.insert(HashOf(Key), Id, [&](uint32_t Other) {
      return Keys[Other] == Key;
    });
    if (Got == Id)
      Keys.push_back(Key);
    return Got;
  }
  bool erase(uint64_t Key) {
    uint32_t Id = find(Key);
    return Id != FlatIndex::NotFound && Index.erase(HashOf(Key), Id);
  }
};

/// The home slot FlatIndex documents: Fibonacci hashing of the owner's
/// hash onto a power-of-two table.
size_t homeSlot(uint32_t Hash, size_t Capacity) {
  unsigned Bits = 0;
  while ((size_t(1) << Bits) < Capacity)
    ++Bits;
  return static_cast<uint32_t>(Hash * 0x9E3779B9u) >> (32 - Bits);
}

} // namespace

TEST(FlatIndexTest, EmptyIndexFindsAndErasesNothing) {
  IndexOwner O;
  EXPECT_EQ(O.find(7), FlatIndex::NotFound);
  EXPECT_FALSE(O.Index.erase(123, 0));
  EXPECT_EQ(O.Index.size(), 0u);
}

TEST(FlatIndexTest, InsertIsIdempotentPerKey) {
  IndexOwner O;
  EXPECT_EQ(O.insert(10), 0u);
  EXPECT_EQ(O.insert(20), 1u);
  EXPECT_EQ(O.insert(10), 0u); // Existing id, nothing stored.
  EXPECT_EQ(O.Keys.size(), 2u);
  EXPECT_EQ(O.Index.size(), 2u);
  EXPECT_EQ(O.find(20), 1u);
}

TEST(FlatIndexTest, ForcedCollisionsStayDistinct) {
  // Every key hashes alike: one probe run, told apart by Eq alone.
  IndexOwner O;
  O.HashOf = [](uint64_t) { return 42u; };
  for (uint64_t K = 0; K < 40; ++K)
    EXPECT_EQ(O.insert(K * 3), K);
  for (uint64_t K = 0; K < 40; ++K) {
    EXPECT_EQ(O.find(K * 3), K);
    EXPECT_EQ(O.find(K * 3 + 1), FlatIndex::NotFound);
  }
  // Erase from the middle of the run, then everything after it must
  // still be reachable (backward shift closes the hole).
  for (uint64_t K = 0; K < 40; K += 2)
    EXPECT_TRUE(O.erase(K * 3));
  for (uint64_t K = 0; K < 40; ++K)
    EXPECT_EQ(O.find(K * 3), K % 2 ? K : FlatIndex::NotFound);
  EXPECT_EQ(O.Index.size(), 20u);
}

TEST(FlatIndexTest, EraseAcrossTheWrapAround) {
  // Four keys whose home is the last slot of the 16-slot table occupy
  // slots 15, 0, 1, 2; a fifth key homed at slot 0 lands behind them.
  IndexOwner O;
  O.insert(1000); // First insert sizes the table.
  ASSERT_EQ(O.Index.capacity(), 16u);
  ASSERT_TRUE(O.erase(1000));
  std::vector<uint64_t> Last, First;
  for (uint64_t K = 0; Last.size() < 4 || First.empty(); ++K) {
    size_t Home = homeSlot(O.HashOf(K), 16);
    if (Home == 15 && Last.size() < 4)
      Last.push_back(K);
    else if (Home == 0 && First.empty())
      First.push_back(K);
  }
  for (uint64_t K : Last)
    O.insert(K);
  O.insert(First[0]);
  ASSERT_EQ(O.Index.capacity(), 16u); // No growth reshuffled the run.
  // Erasing the entry in slot 15 shifts the wrapped entries back across
  // the boundary; the slot-0 key must move too, to stay reachable.
  EXPECT_TRUE(O.erase(Last[0]));
  EXPECT_EQ(O.find(Last[0]), FlatIndex::NotFound);
  for (size_t I = 1; I < 4; ++I)
    EXPECT_NE(O.find(Last[I]), FlatIndex::NotFound) << I;
  EXPECT_NE(O.find(First[0]), FlatIndex::NotFound);
  EXPECT_TRUE(O.erase(Last[2]));
  EXPECT_NE(O.find(Last[1]), FlatIndex::NotFound);
  EXPECT_NE(O.find(Last[3]), FlatIndex::NotFound);
  EXPECT_NE(O.find(First[0]), FlatIndex::NotFound);
  EXPECT_EQ(O.Index.size(), 3u);
}

TEST(FlatIndexTest, GrowthKeepsEveryEntry) {
  IndexOwner O;
  for (uint64_t K = 0; K < 5000; ++K)
    O.insert(K * 0x10001);
  EXPECT_EQ(O.Index.size(), 5000u);
  EXPECT_GE(O.Index.capacity(), 2 * O.Index.size()); // Load <= 1/2.
  for (uint64_t K = 0; K < 5000; ++K)
    ASSERT_EQ(O.find(K * 0x10001), K);
  EXPECT_EQ(O.find(5000 * 0x10001), FlatIndex::NotFound);
}

TEST(FlatIndexTest, EraseThenFindAgainstReference) {
  // Random inserts and erases over a small key space (so runs are long
  // and wrap), checked against std::map after every operation batch.
  std::mt19937 Rng(7);
  IndexOwner O;
  O.HashOf = [](uint64_t K) { return static_cast<uint32_t>(K % 97); };
  std::map<uint64_t, uint32_t> Ref;
  for (int Step = 0; Step < 20000; ++Step) {
    uint64_t K = Rng() % 400;
    if (Rng() % 3) {
      // Present keys keep their id; an erased key returns under a new one.
      uint32_t Id = O.insert(K);
      ASSERT_EQ(Ref.emplace(K, Id).first->second, Id);
    } else {
      ASSERT_EQ(O.erase(K), Ref.erase(K) == 1);
    }
    if (Step % 500 == 0)
      for (uint64_t Q = 0; Q < 400; ++Q) {
        auto It = Ref.find(Q);
        ASSERT_EQ(O.find(Q), It == Ref.end() ? FlatIndex::NotFound
                                             : It->second);
      }
  }
  EXPECT_EQ(O.Index.size(), Ref.size());
}
