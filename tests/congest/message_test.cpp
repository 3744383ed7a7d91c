#include "congest/message.hpp"

#include <gtest/gtest.h>

#include "core/wire.hpp"
#include "util/check.hpp"

namespace decycle::congest {
namespace {

TEST(Message, EmptyByDefault) {
  const Message m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.bit_size(), 0u);
}

TEST(Codec, RoundTripsSmallValues) {
  MessageWriter w;
  w.put_u64(0).put_u64(1).put_u64(127);
  const Message m = w.finish();
  EXPECT_EQ(m.byte_size(), 3u);  // each fits one varint byte
  MessageReader r(m);
  EXPECT_EQ(r.get_u64(), 0u);
  EXPECT_EQ(r.get_u64(), 1u);
  EXPECT_EQ(r.get_u64(), 127u);
  EXPECT_TRUE(r.at_end());
}

TEST(Codec, RoundTripsBoundaryValues) {
  const std::vector<std::uint64_t> values{127, 128, 16383, 16384, (1ULL << 32),
                                          ~std::uint64_t{0}};
  MessageWriter w;
  for (const auto v : values) w.put_u64(v);
  const Message m = w.finish();
  MessageReader r(m);
  for (const auto v : values) EXPECT_EQ(r.get_u64(), v);
}

TEST(Codec, VarintSizeGrowsLogarithmically) {
  MessageWriter small;
  small.put_u64(100);
  MessageWriter large;
  large.put_u64(1ULL << 40);
  EXPECT_EQ(small.finish().byte_size(), 1u);
  EXPECT_EQ(large.finish().byte_size(), 6u);  // ceil(41/7)
}

TEST(Codec, UnderflowThrows) {
  MessageWriter w;
  w.put_u64(5);
  const Message m = w.finish();
  MessageReader r(m);
  (void)r.get_u64();
  EXPECT_THROW((void)r.get_u64(), util::CheckError);
}

TEST(Codec, MalformedVarintThrows) {
  // 11 continuation bytes exceed the 64-bit budget.
  std::vector<std::uint8_t> bytes(11, 0x80);
  const Message m(std::move(bytes));
  MessageReader r(m);
  EXPECT_THROW((void)r.get_u64(), util::CheckError);
}

TEST(WireFormat, SequencesRoundTrip) {
  std::vector<core::IdSeq> seqs;
  seqs.push_back(core::IdSeq{1, 2, 3});
  seqs.push_back(core::IdSeq{900000, 5});
  seqs.push_back(core::IdSeq{});
  MessageWriter w;
  core::write_sequences(w, seqs);
  const Message m = w.finish();
  MessageReader r(m);
  const auto back = core::read_sequences(r);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0], seqs[0]);
  EXPECT_EQ(back[1], seqs[1]);
  EXPECT_TRUE(back[2].empty());
  EXPECT_TRUE(r.at_end());
}

TEST(WireFormat, EmptyBundle) {
  MessageWriter w;
  core::write_sequences(w, {});
  const Message m = w.finish();
  MessageReader r(m);
  EXPECT_TRUE(core::read_sequences(r).empty());
}

TEST(WireFormat, BitSizeTracksIdMagnitude) {
  std::vector<core::IdSeq> small_ids{core::IdSeq{1, 2, 3, 4}};
  std::vector<core::IdSeq> big_ids{core::IdSeq{1ULL << 40, 1ULL << 41, 1ULL << 42, 1ULL << 43}};
  MessageWriter ws, wb;
  core::write_sequences(ws, small_ids);
  core::write_sequences(wb, big_ids);
  EXPECT_LT(ws.finish().bit_size(), wb.finish().bit_size());
}

}  // namespace
}  // namespace decycle::congest
