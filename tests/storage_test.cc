#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>

#include "common/env.h"
#include "common/random.h"
#include "engine/database.h"
#include "storage/buffer_pool.h"
#include "storage/file_manager.h"
#include "storage/heap_file.h"
#include "storage/page.h"
#include "tests/test_util.h"

namespace opdelta::storage {
namespace {

using opdelta::testing::TempDir;

// ------------------------------------------------------------ SlottedPage

class SlottedPageTest : public ::testing::Test {
 protected:
  SlottedPageTest() : page_(buf_) { page_.Init(); }
  alignas(8) char buf_[kPageSize] = {};
  SlottedPage page_;
};

TEST_F(SlottedPageTest, InsertAndRead) {
  uint16_t slot;
  OPDELTA_ASSERT_OK(page_.Insert(Slice("hello"), &slot));
  Slice out;
  OPDELTA_ASSERT_OK(page_.Read(slot, &out));
  EXPECT_EQ(out.ToString(), "hello");
  EXPECT_EQ(page_.LiveCount(), 1);
}

TEST_F(SlottedPageTest, DeleteFreesSlotForReuse) {
  uint16_t s1, s2;
  OPDELTA_ASSERT_OK(page_.Insert(Slice("aaa"), &s1));
  OPDELTA_ASSERT_OK(page_.Delete(s1));
  Slice out;
  EXPECT_TRUE(page_.Read(s1, &out).IsNotFound());
  OPDELTA_ASSERT_OK(page_.Insert(Slice("bbb"), &s2));
  EXPECT_EQ(s2, s1);  // deleted slot reused
}

TEST_F(SlottedPageTest, DeleteTwiceFails) {
  uint16_t slot;
  OPDELTA_ASSERT_OK(page_.Insert(Slice("x"), &slot));
  OPDELTA_ASSERT_OK(page_.Delete(slot));
  EXPECT_TRUE(page_.Delete(slot).IsNotFound());
}

TEST_F(SlottedPageTest, UpdateInPlaceSameSize) {
  uint16_t slot;
  OPDELTA_ASSERT_OK(page_.Insert(Slice("12345"), &slot));
  OPDELTA_ASSERT_OK(page_.Update(slot, Slice("abcde")));
  Slice out;
  OPDELTA_ASSERT_OK(page_.Read(slot, &out));
  EXPECT_EQ(out.ToString(), "abcde");
}

TEST_F(SlottedPageTest, UpdateShrinkAndGrow) {
  uint16_t slot;
  OPDELTA_ASSERT_OK(page_.Insert(Slice("longrecord"), &slot));
  OPDELTA_ASSERT_OK(page_.Update(slot, Slice("sm")));
  Slice out;
  OPDELTA_ASSERT_OK(page_.Read(slot, &out));
  EXPECT_EQ(out.ToString(), "sm");
  OPDELTA_ASSERT_OK(page_.Update(slot, Slice("a much longer record now")));
  OPDELTA_ASSERT_OK(page_.Read(slot, &out));
  EXPECT_EQ(out.ToString(), "a much longer record now");
}

TEST_F(SlottedPageTest, FillsToCapacityThenRejects) {
  const std::string record(100, 'r');
  uint16_t slot;
  int inserted = 0;
  while (page_.Insert(Slice(record), &slot).ok()) ++inserted;
  // 8192 / ~104 per record => roughly 78 records.
  EXPECT_GT(inserted, 70);
  EXPECT_LT(inserted, 85);
  EXPECT_EQ(page_.LiveCount(), inserted);
}

TEST_F(SlottedPageTest, CompactionReclaimsDeletedSpace) {
  const std::string record(100, 'r');
  uint16_t slot;
  std::vector<uint16_t> slots;
  while (page_.Insert(Slice(record), &slot).ok()) slots.push_back(slot);
  // Delete every other record, then insert again: Compact (invoked by
  // Insert on demand) must make room.
  for (size_t i = 0; i < slots.size(); i += 2) {
    OPDELTA_ASSERT_OK(page_.Delete(slots[i]));
  }
  int reinserted = 0;
  while (page_.Insert(Slice(record), &slot).ok()) ++reinserted;
  EXPECT_GE(reinserted, static_cast<int>(slots.size() / 2));
  // Survivors must be intact after compaction.
  for (size_t i = 1; i < slots.size(); i += 2) {
    Slice out;
    OPDELTA_ASSERT_OK(page_.Read(slots[i], &out));
    EXPECT_EQ(out.ToString(), record);
  }
}

TEST_F(SlottedPageTest, OversizeRecordRejected) {
  uint16_t slot;
  std::string big(kPageSize, 'x');
  EXPECT_FALSE(page_.Insert(Slice(big), &slot).ok());
}

// ------------------------------------------------------------ FileManager

TEST(FileManagerTest, AllocateWriteRead) {
  TempDir dir;
  FileManager fm;
  OPDELTA_ASSERT_OK(fm.Open(dir.Sub("data.db")));
  PageId id;
  OPDELTA_ASSERT_OK(fm.AllocatePage(&id));
  EXPECT_EQ(id, 0u);
  char buf[kPageSize];
  std::memset(buf, 0x5A, kPageSize);
  OPDELTA_ASSERT_OK(fm.WritePage(id, buf));
  char readback[kPageSize] = {};
  OPDELTA_ASSERT_OK(fm.ReadPage(id, readback));
  EXPECT_EQ(std::memcmp(buf, readback, kPageSize), 0);
  OPDELTA_ASSERT_OK(fm.Close());
}

TEST(FileManagerTest, PersistsAcrossReopen) {
  TempDir dir;
  const std::string path = dir.Sub("data.db");
  {
    FileManager fm;
    OPDELTA_ASSERT_OK(fm.Open(path));
    PageId id;
    OPDELTA_ASSERT_OK(fm.AllocatePage(&id));
    char buf[kPageSize];
    std::memset(buf, 7, kPageSize);
    OPDELTA_ASSERT_OK(fm.WritePage(id, buf));
    OPDELTA_ASSERT_OK(fm.Sync());
    OPDELTA_ASSERT_OK(fm.Close());
  }
  FileManager fm;
  OPDELTA_ASSERT_OK(fm.Open(path));
  EXPECT_EQ(fm.num_pages(), 1u);
  char readback[kPageSize];
  OPDELTA_ASSERT_OK(fm.ReadPage(0, readback));
  EXPECT_EQ(readback[100], 7);
}

TEST(FileManagerTest, OutOfRangeRejected) {
  TempDir dir;
  FileManager fm;
  OPDELTA_ASSERT_OK(fm.Open(dir.Sub("d.db")));
  char buf[kPageSize];
  EXPECT_FALSE(fm.ReadPage(5, buf).ok());
  EXPECT_FALSE(fm.WritePage(5, buf).ok());
}

TEST(FileManagerTest, IoStatsCount) {
  TempDir dir;
  FileManager fm;
  OPDELTA_ASSERT_OK(fm.Open(dir.Sub("d.db")));
  PageId id;
  OPDELTA_ASSERT_OK(fm.AllocatePage(&id));
  char buf[kPageSize] = {};
  OPDELTA_ASSERT_OK(fm.WritePage(id, buf));
  OPDELTA_ASSERT_OK(fm.ReadPage(id, buf));
  EXPECT_EQ(fm.io_stats().page_writes.load(), 2u);  // alloc + write
  EXPECT_EQ(fm.io_stats().page_reads.load(), 1u);
}

// ------------------------------------------------------------- BufferPool

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    OPDELTA_ASSERT_OK(fm_.Open(dir_.Sub("pool.db")));
    pool_ = std::make_unique<BufferPool>(&fm_, 4);
  }
  TempDir dir_;
  FileManager fm_;
  std::unique_ptr<BufferPool> pool_;
};

TEST_F(BufferPoolTest, NewPageZeroedAndPinned) {
  PageGuard guard;
  OPDELTA_ASSERT_OK(pool_->NewPage(&guard));
  ASSERT_TRUE(guard.valid());
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(guard.data()[i], 0);
}

TEST_F(BufferPoolTest, FetchHitAfterNew) {
  PageId id;
  {
    PageGuard guard;
    OPDELTA_ASSERT_OK(pool_->NewPage(&guard));
    id = guard.page_id();
    guard.data()[0] = 'z';
    guard.MarkDirty();
  }
  PageGuard guard;
  OPDELTA_ASSERT_OK(pool_->FetchPage(id, &guard));
  EXPECT_EQ(guard.data()[0], 'z');
  EXPECT_GE(pool_->stats().hits.load(), 1u);
}

TEST_F(BufferPoolTest, EvictionWritesBackDirty) {
  // Fill beyond capacity so the first page is evicted, then refetch it.
  PageId first;
  {
    PageGuard g;
    OPDELTA_ASSERT_OK(pool_->NewPage(&g));
    first = g.page_id();
    g.data()[10] = 'd';
    g.MarkDirty();
  }
  for (int i = 0; i < 6; ++i) {
    PageGuard g;
    OPDELTA_ASSERT_OK(pool_->NewPage(&g));
  }
  EXPECT_GT(pool_->stats().evictions.load(), 0u);
  PageGuard g;
  OPDELTA_ASSERT_OK(pool_->FetchPage(first, &g));
  EXPECT_EQ(g.data()[10], 'd');
}

TEST_F(BufferPoolTest, AllPinnedExhaustsPool) {
  std::vector<PageGuard> guards(5);
  for (int i = 0; i < 4; ++i) {
    OPDELTA_ASSERT_OK(pool_->NewPage(&guards[i]));
  }
  Status st = pool_->NewPage(&guards[4]);
  EXPECT_EQ(st.code(), StatusCode::kBusy);
}

TEST_F(BufferPoolTest, ReleaseUnpinsEarly) {
  std::vector<PageGuard> guards(4);
  for (int i = 0; i < 4; ++i) {
    OPDELTA_ASSERT_OK(pool_->NewPage(&guards[i]));
  }
  guards[0].Release();
  PageGuard extra;
  OPDELTA_ASSERT_OK(pool_->NewPage(&extra));  // evicts the released frame
}

TEST_F(BufferPoolTest, FlushAllPersists) {
  PageId id;
  {
    PageGuard g;
    OPDELTA_ASSERT_OK(pool_->NewPage(&g));
    id = g.page_id();
    g.data()[0] = 'p';
    g.MarkDirty();
  }
  OPDELTA_ASSERT_OK(pool_->FlushAll(/*sync=*/true));
  char buf[kPageSize];
  OPDELTA_ASSERT_OK(fm_.ReadPage(id, buf));
  EXPECT_EQ(buf[0], 'p');
}

// --------------------------------------------------------------- HeapFile

class HeapFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    OPDELTA_ASSERT_OK(fm_.Open(dir_.Sub("heap.db")));
    pool_ = std::make_unique<BufferPool>(&fm_, 64);
    heap_ = std::make_unique<HeapFile>(pool_.get());
    OPDELTA_ASSERT_OK(heap_->Open());
  }
  TempDir dir_;
  FileManager fm_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<HeapFile> heap_;
};

TEST_F(HeapFileTest, InsertReadDelete) {
  Rid rid;
  OPDELTA_ASSERT_OK(heap_->Insert(Slice("record-1"), &rid));
  std::string out;
  OPDELTA_ASSERT_OK(heap_->Read(rid, &out));
  EXPECT_EQ(out, "record-1");
  EXPECT_EQ(heap_->live_records(), 1u);
  OPDELTA_ASSERT_OK(heap_->Delete(rid));
  EXPECT_EQ(heap_->live_records(), 0u);
  EXPECT_FALSE(heap_->Read(rid, &out).ok());
}

TEST_F(HeapFileTest, SpansManyPages) {
  const std::string record(500, 'q');
  std::vector<Rid> rids;
  for (int i = 0; i < 200; ++i) {
    Rid rid;
    OPDELTA_ASSERT_OK(heap_->Insert(Slice(record), &rid));
    rids.push_back(rid);
  }
  EXPECT_GT(heap_->num_pages(), 10u);
  std::string out;
  for (const Rid& rid : rids) {
    OPDELTA_ASSERT_OK(heap_->Read(rid, &out));
    EXPECT_EQ(out, record);
  }
}

TEST_F(HeapFileTest, UpdateInPlaceKeepsRid) {
  Rid rid, new_rid;
  OPDELTA_ASSERT_OK(heap_->Insert(Slice("0123456789"), &rid));
  OPDELTA_ASSERT_OK(heap_->Update(rid, Slice("abcdefghij"), &new_rid));
  EXPECT_TRUE(rid == new_rid);
  std::string out;
  OPDELTA_ASSERT_OK(heap_->Read(new_rid, &out));
  EXPECT_EQ(out, "abcdefghij");
}

TEST_F(HeapFileTest, UpdateRelocatesWhenPageFull) {
  // Fill one page completely, then grow one record so it must move.
  const std::string record(2000, 'f');
  std::vector<Rid> rids;
  for (int i = 0; i < 4; ++i) {
    Rid rid;
    OPDELTA_ASSERT_OK(heap_->Insert(Slice(record), &rid));
    rids.push_back(rid);
  }
  const std::string bigger(4000, 'g');
  Rid new_rid;
  OPDELTA_ASSERT_OK(heap_->Update(rids[0], Slice(bigger), &new_rid));
  std::string out;
  OPDELTA_ASSERT_OK(heap_->Read(new_rid, &out));
  EXPECT_EQ(out, bigger);
  EXPECT_EQ(heap_->live_records(), 4u);
}

TEST_F(HeapFileTest, ForEachVisitsAllLiveRecords) {
  std::set<std::string> expected;
  for (int i = 0; i < 50; ++i) {
    Rid rid;
    std::string rec = "rec-" + std::to_string(i);
    OPDELTA_ASSERT_OK(heap_->Insert(Slice(rec), &rid));
    expected.insert(rec);
  }
  std::set<std::string> seen;
  OPDELTA_ASSERT_OK(heap_->ForEach([&](const Rid&, Slice record) {
    seen.insert(record.ToString());
    return true;
  }));
  EXPECT_EQ(seen, expected);
}

TEST_F(HeapFileTest, ForEachEarlyStop) {
  for (int i = 0; i < 10; ++i) {
    Rid rid;
    OPDELTA_ASSERT_OK(heap_->Insert(Slice("x"), &rid));
  }
  int visited = 0;
  OPDELTA_ASSERT_OK(heap_->ForEach([&](const Rid&, Slice) {
    return ++visited < 3;
  }));
  EXPECT_EQ(visited, 3);
}

TEST_F(HeapFileTest, BulkLoadWritesDirectly) {
  std::vector<std::string> records;
  for (int i = 0; i < 1000; ++i) {
    records.push_back("bulk-" + std::to_string(i));
  }
  OPDELTA_ASSERT_OK(heap_->BulkLoad(records));
  EXPECT_EQ(heap_->live_records(), 1000u);
  size_t count = 0;
  OPDELTA_ASSERT_OK(heap_->ForEach([&](const Rid&, Slice) {
    ++count;
    return true;
  }));
  EXPECT_EQ(count, 1000u);
}

TEST_F(HeapFileTest, ReopenRebuildsState) {
  std::vector<Rid> rids;
  for (int i = 0; i < 30; ++i) {
    Rid rid;
    OPDELTA_ASSERT_OK(heap_->Insert(Slice("persist-" + std::to_string(i)),
                                    &rid));
    rids.push_back(rid);
  }
  OPDELTA_ASSERT_OK(heap_->Delete(rids[5]));
  OPDELTA_ASSERT_OK(pool_->FlushAll(true));

  HeapFile reopened(pool_.get());
  OPDELTA_ASSERT_OK(reopened.Open());
  EXPECT_EQ(reopened.live_records(), 29u);
  std::string out;
  OPDELTA_ASSERT_OK(reopened.Read(rids[10], &out));
  EXPECT_EQ(out, "persist-10");
}

TEST(TinyPoolStressTest, EvictionHeavyWorkloadStaysCorrect) {
  // A 8-frame pool forced to evict constantly while a large heap is
  // mutated and scanned: dirty write-back and refetch must never lose or
  // duplicate a record.
  TempDir dir;
  FileManager fm;
  OPDELTA_ASSERT_OK(fm.Open(dir.Sub("tiny.db")));
  BufferPool pool(&fm, 8);
  HeapFile heap(&pool);
  OPDELTA_ASSERT_OK(heap.Open());

  Rng rng(808);
  std::map<uint64_t, std::pair<Rid, std::string>> model;
  uint64_t next_id = 0;
  for (int step = 0; step < 4000; ++step) {
    const uint64_t action = rng.Uniform(10);
    if (action < 6 || model.empty()) {
      std::string data = rng.NextString(200 + rng.Uniform(400));
      Rid rid;
      OPDELTA_ASSERT_OK(heap.Insert(Slice(data), &rid));
      model[next_id++] = {rid, data};
    } else if (action < 8) {
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      OPDELTA_ASSERT_OK(heap.Delete(it->second.first));
      model.erase(it);
    } else {
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      std::string data = rng.NextString(200 + rng.Uniform(600));
      Rid new_rid;
      OPDELTA_ASSERT_OK(
          heap.Update(it->second.first, Slice(data), &new_rid));
      it->second = {new_rid, data};
    }
  }
  EXPECT_GT(pool.stats().evictions.load(), 100u);  // the pool really churned

  EXPECT_EQ(heap.live_records(), model.size());
  size_t scanned = 0;
  OPDELTA_ASSERT_OK(heap.ForEach([&](const Rid&, Slice) {
    ++scanned;
    return true;
  }));
  EXPECT_EQ(scanned, model.size());
  for (const auto& [id, entry] : model) {
    std::string out;
    OPDELTA_ASSERT_OK(heap.Read(entry.first, &out));
    ASSERT_EQ(out, entry.second) << "id " << id;
  }
}

TEST_F(HeapFileTest, RandomizedAgainstModel) {
  Rng rng(2024);
  std::map<uint64_t, std::pair<Rid, std::string>> model;  // id -> (rid, data)
  uint64_t next_id = 0;
  for (int step = 0; step < 3000; ++step) {
    const uint64_t action = rng.Uniform(10);
    if (action < 5 || model.empty()) {
      std::string data = rng.NextString(20 + rng.Uniform(200));
      Rid rid;
      OPDELTA_ASSERT_OK(heap_->Insert(Slice(data), &rid));
      model[next_id++] = {rid, data};
    } else if (action < 7) {
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      OPDELTA_ASSERT_OK(heap_->Delete(it->second.first));
      model.erase(it);
    } else {
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      std::string data = rng.NextString(20 + rng.Uniform(400));
      Rid new_rid;
      OPDELTA_ASSERT_OK(
          heap_->Update(it->second.first, Slice(data), &new_rid));
      it->second = {new_rid, data};
    }
  }
  EXPECT_EQ(heap_->live_records(), model.size());
  for (const auto& [id, entry] : model) {
    std::string out;
    OPDELTA_ASSERT_OK(heap_->Read(entry.first, &out));
    EXPECT_EQ(out, entry.second);
  }
}

// ------------------------------------------------------ buffer-pool arena

/// Resident set size of this process in bytes, from /proc/self/statm.
/// 0 when it cannot be read.
uint64_t ResidentBytes() {
  // procfs reports size 0, so read a fixed-size prefix, not the "file".
  std::unique_ptr<RandomAccessFile> file;
  if (!Env::Default()->NewRandomAccessFile("/proc/self/statm", &file).ok()) {
    return 0;
  }
  char buf[128] = {};
  Slice line;
  if (!file->Read(0, sizeof(buf) - 1, &line, buf).ok()) return 0;
  // "size resident shared ..." in pages.
  const std::string text = line.ToString();
  char* next = nullptr;
  (void)std::strtoull(text.c_str(), &next, 10);
  const uint64_t resident_pages = std::strtoull(next, nullptr, 10);
  return resident_pages * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

TEST(BufferPoolArenaTest, OpeningTablesLeavesTheirArenasUntouched) {
  // Every table reserves a 1,024-frame (8 MB) pool arena, but only the
  // frames its pages land in may become resident: eight fresh tables must
  // not pin 64 MB of zeroed frames.
  TempDir dir;
  std::unique_ptr<engine::Database> db = opdelta::testing::OpenDb(dir, "db");
  ASSERT_NE(db, nullptr);
  const catalog::Schema schema(
      {catalog::Column{"id", catalog::ValueType::kInt64}});
  const uint64_t before = ResidentBytes();
  ASSERT_GT(before, 0u);
  for (int i = 0; i < 8; ++i) {
    OPDELTA_ASSERT_OK(db->CreateTable("t" + std::to_string(i), schema));
  }
  const uint64_t grown = ResidentBytes() - before;
  EXPECT_LT(grown, uint64_t{16} << 20) << "RSS grew by " << grown << " bytes";
}

}  // namespace
}  // namespace opdelta::storage
