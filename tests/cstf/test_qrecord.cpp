// QRecord: the flat QCOO queue record. Its wire bytes are pinned to
// literals, so a layout change can never move the shuffle byte counts; and
// rows whose length differs from the queue's are refused on every path in.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cstf/records.hpp"

namespace cstf::cstf_core {
namespace {

// Order-3 nonzero (7, 1, 42) = 1.5 with rows {0.5, -2} and {3.25, 4}.
const std::vector<std::uint8_t> kOrder3Bytes = {
    0x03, 0x07, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x2a, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f, 0x02, 0x00, 0x00,
    0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0,
    0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0x02, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0a, 0x40, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x10, 0x40};

// Order-3 nonzero (2, 3, 5) = -0.75 before its first join: empty queue.
const std::vector<std::uint8_t> kEmptyBytes = {
    0x03, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe8, 0xbf, 0x00, 0x00, 0x00,
    0x00};

// Order-5 nonzero (100, 111, 122, 133, 144) = 2 with four rank-3 rows
// {1+i, 0.5i, -0.25-i}: 12 doubles, more than the inline buffer holds.
const std::vector<std::uint8_t> kOrder5Bytes = {
    0x05, 0x64, 0x00, 0x00, 0x00, 0x6f, 0x00, 0x00, 0x00, 0x7a, 0x00, 0x00,
    0x00, 0x85, 0x00, 0x00, 0x00, 0x90, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x40, 0x04, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0,
    0xbf, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0xf4, 0xbf, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x08, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0,
    0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0xc0, 0x03, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x40, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0xf8, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0a,
    0xc0};

// Offsets of the rows' u32 lengths inside kOrder3Bytes: a 21-byte nonzero
// and the u32 row count come first, then each row is one u32 + 2 doubles.
constexpr std::size_t kOrder3FirstRowLen = 21 + 4;
constexpr std::size_t kOrder3SecondRowLen = kOrder3FirstRowLen + 4 + 16;

QRecord order3Record() {
  QRecord q;
  q.nz = tensor::makeNonzero3(7, 1, 42, 1.5);
  q.enqueue(la::Row{0.5, -2.0});
  q.enqueue(la::Row{3.25, 4.0});
  return q;
}

QRecord emptyRecord() {
  QRecord q;
  q.nz = tensor::makeNonzero3(2, 3, 5, -0.75);
  return q;
}

QRecord order5Record() {
  QRecord q;
  q.nz = tensor::makeNonzero({100, 111, 122, 133, 144}, 2.0);
  for (int i = 0; i < 4; ++i) {
    q.enqueue(la::Row{1.0 + i, 0.5 * i, -0.25 - i});
  }
  return q;
}

void expectWireBytes(const QRecord& q, const std::vector<std::uint8_t>& want) {
  EXPECT_EQ(FixedWidthSerde<QRecord>::width(q), want.size());
  std::vector<std::uint8_t> fast(FixedWidthSerde<QRecord>::width(q));
  EXPECT_EQ(FixedWidthSerde<QRecord>::encode(fast.data(), q),
            fast.data() + fast.size());
  EXPECT_EQ(fast, want);

  QRecord decoded = order5Record();  // decode must overwrite, not append
  EXPECT_EQ(FixedWidthSerde<QRecord>::decode(want.data(), decoded),
            want.data() + want.size());
  EXPECT_EQ(decoded, q);
}

// Runs `fn`, which must throw cstf::Error naming the expected and actual R.
template <typename Fn>
void expectLengthMismatch(Fn fn, const std::string& expected,
                          const std::string& actual) {
  try {
    fn();
    ADD_FAILURE() << "mixed row lengths were accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(expected), std::string::npos) << what;
    EXPECT_NE(what.find(actual), std::string::npos) << what;
  }
}

TEST(QRecord, WireBytesOrder3TwoRows) {
  expectWireBytes(order3Record(), kOrder3Bytes);
}

TEST(QRecord, WireBytesEmptyQueue) {
  expectWireBytes(emptyRecord(), kEmptyBytes);
}

TEST(QRecord, WireBytesOrder5SpillsInlineBuffer) {
  expectWireBytes(order5Record(), kOrder5Bytes);
}

TEST(QRecord, QueueIsFifoOverOneFlatBuffer) {
  QRecord q = order3Record();
  ASSERT_EQ(q.queueSize(), 2u);
  EXPECT_EQ(q.rank(), 2u);
  EXPECT_EQ(q.row(0)[0], 0.5);
  EXPECT_EQ(q.row(1)[1], 4.0);
  EXPECT_EQ(q.row(1), q.row(0) + 2);  // rows are back to back

  q.enqueue(la::Row{9.0, 8.0});
  q.dequeue();
  ASSERT_EQ(q.queueSize(), 2u);
  EXPECT_EQ(q.row(0)[0], 3.25);
  EXPECT_EQ(q.row(1)[1], 8.0);

  q.dequeue();
  q.dequeue();
  EXPECT_EQ(q.queueSize(), 0u);
  EXPECT_EQ(q.rank(), 0u);  // an empty queue takes a new length again
  q.enqueue(la::Row{1.0, 2.0, 3.0});
  EXPECT_EQ(q.rank(), 3u);
}

TEST(QRecord, EnqueueRefusesMixedRowLengths) {
  QRecord q = order3Record();
  expectLengthMismatch([&] { q.enqueue(la::Row{1.0, 2.0, 3.0}); },
                       "expected R=2", "got R=3");
  EXPECT_EQ(q, order3Record());  // the refused row left no trace
  expectLengthMismatch([&] { emptyRecord().enqueue(la::Row{}); },
                       "expected R>0", "got R=0");
}

TEST(QRecord, AdvanceEqualsEnqueueThenDequeue) {
  // Orders 2-5 queue 1-4 rows; at R up to 5 the larger queues spill the
  // inline buffer. Each record advances twice, and a fresh record once.
  for (std::size_t order = 2; order <= 5; ++order) {
    for (std::uint32_t rank = 1; rank <= 5; ++rank) {
      SCOPED_TRACE("order " + std::to_string(order) + ", R " +
                   std::to_string(rank));
      auto row = [rank](double base) {
        la::Row r;
        for (std::uint32_t k = 0; k < rank; ++k) r.push_back(base + 0.5 * k);
        return r;
      };
      QRecord q;
      q.nz = tensor::makeNonzero(std::vector<Index>(order, 3), 1.25);
      QRecord fresh = q;
      QRecord freshWant = q;
      fresh.advance(row(-1.0));
      freshWant.enqueue(row(-1.0));
      freshWant.dequeue();
      EXPECT_EQ(fresh, freshWant);

      for (std::size_t i = 0; i + 1 < order; ++i) q.enqueue(row(10.0 * i));
      QRecord want = q;
      for (const double base : {100.0, 200.0}) {
        q.advance(row(base));
        want.enqueue(row(base));
        want.dequeue();
        EXPECT_EQ(q, want);
      }
      EXPECT_EQ(q.queueSize(), order - 1);
      EXPECT_EQ(q.row(order - 2)[0], 200.0);
    }
  }
}

TEST(QRecord, AdvanceRefusesMixedRowLengths) {
  QRecord q = order3Record();
  expectLengthMismatch([&] { q.advance(la::Row{1.0, 2.0, 3.0}); },
                       "expected R=2", "got R=3");
  EXPECT_EQ(q, order3Record());  // the refused row left no trace
  expectLengthMismatch([&] { emptyRecord().advance(la::Row{}); },
                       "expected R>0", "got R=0");
}

TEST(QRecord, DeserializeRefusesMixedRowLengths) {
  std::vector<std::uint8_t> bytes = kOrder3Bytes;
  bytes[kOrder3SecondRowLen] = 0x03;               // second row claims R=3
  bytes.insert(bytes.end(), sizeof(double), 0x00);  // ...and carries it
  expectLengthMismatch(
      [&] {
        QRecord out;
        FixedWidthSerde<QRecord>::decode(bytes.data(), out);
      },
      "expected R=2", "got R=3");
}

TEST(QRecord, FastDecodeRefusesMixedRowLengths) {
  std::vector<std::uint8_t> bytes = kOrder3Bytes;
  bytes[kOrder3SecondRowLen] = 0x01;  // second row claims R=1
  expectLengthMismatch(
      [&] {
        QRecord out;
        FixedWidthSerde<QRecord>::decode(bytes.data(), out);
      },
      "expected R=2", "got R=1");
}

}  // namespace
}  // namespace cstf::cstf_core
