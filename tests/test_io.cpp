// Tests for the SAFS-like striped storage and the asynchronous I/O service.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/config.h"
#include "io/async_io.h"
#include "io/safs.h"
#include "mem/buffer_pool.h"

namespace flashr {
namespace {

class SafsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    options o;
    o.em_dir = "/tmp/flashr_test_em";
    o.stripes = 3;
    o.stripe_unit = 4096;
    init(o);
  }
};

std::vector<char> pattern(std::size_t n, unsigned seed) {
  std::vector<char> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<char>((i * 131 + seed) & 0xff);
  return v;
}

TEST_F(SafsTest, RoundTripWholeFile) {
  const std::size_t n = 64 * 1024 + 123;
  auto f = safs_file::create("rt1", n);
  auto data = pattern(n, 1);
  f->write(0, n, data.data());
  std::vector<char> back(n);
  f->read(0, n, back.data());
  EXPECT_EQ(std::memcmp(data.data(), back.data(), n), 0);
}

TEST_F(SafsTest, RoundTripUnalignedRanges) {
  const std::size_t n = 40 * 1024;
  auto f = safs_file::create("rt2", n);
  auto data = pattern(n, 2);
  // Write in odd-sized pieces spanning stripe-unit boundaries.
  std::size_t off = 0;
  const std::size_t pieces[] = {1000, 5000, 4096, 12345, 100, 18419};
  for (std::size_t len : pieces) {
    f->write(off, len, data.data() + off);
    off += len;
  }
  ASSERT_EQ(off, n);
  std::vector<char> back(n);
  f->read(0, n, back.data());
  EXPECT_EQ(std::memcmp(data.data(), back.data(), n), 0);
}

TEST_F(SafsTest, RoundRobinPlacement) {
  const std::size_t n = 10 * 4096;
  auto f = safs_file::create("rr", n, stripe_placement::round_robin);
  auto data = pattern(n, 3);
  f->write(0, n, data.data());
  std::vector<char> back(n);
  f->read(0, n, back.data());
  EXPECT_EQ(std::memcmp(data.data(), back.data(), n), 0);
  EXPECT_EQ(f->num_stripes(), 3);
}

TEST_F(SafsTest, HashPlacementRoundTripManyUnits) {
  const std::size_t n = 257 * 4096;  // prime number of units
  auto f = safs_file::create("hash", n, stripe_placement::hash);
  auto data = pattern(n, 4);
  f->write(0, n, data.data());
  std::vector<char> back(n);
  f->read(0, n, back.data());
  EXPECT_EQ(std::memcmp(data.data(), back.data(), n), 0);
}

TEST_F(SafsTest, BackingFilesRemovedOnDestruction) {
  std::string path;
  {
    auto f = safs_file::create("gone", 4096);
    path = conf().em_dir + "/gone.stripe0";
    std::vector<char> d(4096, 7);
    f->write(0, 4096, d.data());
    EXPECT_EQ(::access(path.c_str(), F_OK), 0);
  }
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

TEST_F(SafsTest, AsyncReadWrite) {
  const std::size_t n = 128 * 1024;
  auto f = safs_file::create("async1", n);
  auto& aio = async_io::global();
  auto& pool = buffer_pool::global();

  auto data = pattern(n, 5);
  const std::size_t half = n / 2;
  for (int i = 0; i < 2; ++i) {
    auto buf = pool.get(half);
    std::memcpy(buf.data(), data.data() + static_cast<std::size_t>(i) * half,
                half);
    aio.submit_write(f, static_cast<std::size_t>(i) * half, half,
                     std::move(buf));
  }
  aio.drain_writes();

  std::vector<char> back(n);
  auto fut1 = aio.submit_read(f, 0, half, back.data());
  auto fut2 = aio.submit_read(f, half, half, back.data() + half);
  fut1.get();
  fut2.get();
  EXPECT_EQ(std::memcmp(data.data(), back.data(), n), 0);
}

// A completed request holds no reference to its file. A caller that drops
// its file and then drains (or waits on a read) must find it already
// destroyed, with its backing files unlinked: an I/O thread releasing the
// last reference later would delete the files under whoever cleans the
// directory next.
TEST_F(SafsTest, CompletedRequestsReleaseTheirFile) {
  auto& aio = async_io::global();
  const std::size_t n = 4096;
  const std::string name = "released" + std::to_string(::getpid());
  std::vector<char> back(n);
  for (int i = 0; i < 200; ++i) {
    std::weak_ptr<safs_file> weak;
    std::future<void> read;
    {
      auto f = safs_file::create(name, n);
      weak = f;
      auto buf = buffer_pool::global().get(n);
      std::memset(buf.data(), i & 0xff, n);
      aio.submit_write(f, 0, n, std::move(buf));
      aio.drain_writes();
      read = aio.submit_read(std::move(f), 0, n, back.data());
    }
    read.get();
    ASSERT_TRUE(weak.expired()) << "read, iteration " << i;
    ASSERT_EQ(back[0], static_cast<char>(i & 0xff));

    {
      auto f = safs_file::create(name, n);
      weak = f;
      aio.submit_write(std::move(f), 0, n, buffer_pool::global().get(n));
    }
    aio.drain_writes();
    ASSERT_TRUE(weak.expired()) << "write, iteration " << i;
  }
}

TEST_F(SafsTest, IoStatsCountBytes) {
  auto& stats = io_stats::global();
  stats.reset();
  const std::size_t n = 32 * 1024;
  auto f = safs_file::create("stats", n);
  auto& aio = async_io::global();
  auto buf = buffer_pool::global().get(n);
  std::memset(buf.data(), 1, n);
  aio.submit_write(f, 0, n, std::move(buf));
  aio.drain_writes();
  std::vector<char> back(n);
  aio.submit_read(f, 0, n, back.data()).get();
  EXPECT_EQ(stats.write_bytes.load(), n);
  EXPECT_EQ(stats.read_bytes.load(), n);
  EXPECT_EQ(stats.write_ops.load(), 1u);
  EXPECT_EQ(stats.read_ops.load(), 1u);
}

TEST_F(SafsTest, ThrottleLimitsThroughput) {
  mutable_conf().io_throttle_mbps = 50.0;  // 50 MB/s
  io_throttle throttle;
  const std::size_t chunk = 1 << 20;  // 1 MB -> 20 ms at 50 MB/s
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 3; ++i) throttle.acquire(chunk);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  mutable_conf().io_throttle_mbps = 0.0;
  // 3 MB at 50 MB/s should take >= ~40 ms (first acquire may pass free).
  EXPECT_GE(secs, 0.035);
}

TEST_F(SafsTest, ZeroFillsUnwrittenHoles) {
  auto f = safs_file::create("hole", 8192);
  std::vector<char> back(4096, 42);
  f->read(4096, 4096, back.data());  // never written
  for (char c : back) EXPECT_EQ(c, 0);
}

}  // namespace
}  // namespace flashr
