#include "tensor/io.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tensor/generator.hpp"

namespace cstf::tensor {
namespace {

TEST(TnsIo, ParsesSimple3Order) {
  std::istringstream in("1 1 1 2.5\n2 3 4 -1.0\n");
  CooTensor t = readTns(in);
  EXPECT_EQ(t.order(), 3);
  ASSERT_EQ(t.nnz(), 2u);
  EXPECT_EQ(t.nonzeros()[0], makeNonzero3(0, 0, 0, 2.5));
  EXPECT_EQ(t.nonzeros()[1], makeNonzero3(1, 2, 3, -1.0));
  EXPECT_EQ(t.dim(0), 2u);
  EXPECT_EQ(t.dim(2), 4u);
}

TEST(TnsIo, SkipsCommentsAndBlanks) {
  std::istringstream in("# header\n\n1 1 1 1.0\n   \n# trailing\n2 2 2 2.0");
  CooTensor t = readTns(in);
  EXPECT_EQ(t.nnz(), 2u);
}

TEST(TnsIo, InlineComments) {
  std::istringstream in("1 1 1 1.0 # this one\n");
  EXPECT_EQ(readTns(in).nnz(), 1u);
}

TEST(TnsIo, Handles4Order) {
  std::istringstream in("1 2 3 4 9.0\n");
  CooTensor t = readTns(in);
  EXPECT_EQ(t.order(), 4);
  EXPECT_EQ(t.nonzeros()[0], makeNonzero4(0, 1, 2, 3, 9.0));
}

TEST(TnsIo, RejectsInconsistentArity) {
  std::istringstream in("1 1 1 1.0\n1 1 1 1 1.0\n");
  EXPECT_THROW(readTns(in), Error);
}

TEST(TnsIo, RejectsZeroIndex) {
  std::istringstream in("0 1 1 1.0\n");
  EXPECT_THROW(readTns(in), Error);
}

TEST(TnsIo, RejectsGarbageValue) {
  std::istringstream in("1 1 1 abc\n");
  EXPECT_THROW(readTns(in), Error);
}

TEST(TnsIo, RejectsEmptyInput) {
  std::istringstream in("# only comments\n");
  EXPECT_THROW(readTns(in), Error);
}

TEST(TnsIo, ExpectedOrderEnforced) {
  std::istringstream in("1 1 1 1.0\n");
  EXPECT_THROW(readTns(in, 4), Error);
}

TEST(TnsIo, ScientificNotationValues) {
  std::istringstream in("1 1 1 1.5e-3\n");
  EXPECT_DOUBLE_EQ(readTns(in).nonzeros()[0].val, 1.5e-3);
}

TEST(TnsIo, WriteReadRoundTrip) {
  CooTensor t = paperAnalog("synt3d-s", 0.01);
  std::stringstream buf;
  writeTns(buf, t);
  CooTensor back = readTns(buf);
  ASSERT_EQ(back.nnz(), t.nnz());
  for (std::size_t i = 0; i < t.nnz(); ++i) {
    EXPECT_EQ(back.nonzeros()[i], t.nonzeros()[i]);
  }
}

TEST(TnsIo, FileRoundTrip) {
  CooTensor t({3, 3, 3}, {makeNonzero3(0, 1, 2, 1.5)});
  const std::string path = testing::TempDir() + "/cstf_io_test.tns";
  writeTnsFile(path, t);
  CooTensor back = readTnsFile(path);
  EXPECT_EQ(back.nnz(), 1u);
  EXPECT_EQ(back.nonzeros()[0], t.nonzeros()[0]);
  // Trailing empty slices survive: dims come from the header, not from
  // the largest index seen.
  EXPECT_EQ(back.dims(), t.dims());
}

TEST(TnsIo, DimsHeaderFixesDims) {
  std::istringstream in("# dims: 5 4 3\n1 1 1 1.0\n");
  CooTensor t = readTns(in);
  EXPECT_EQ(t.dims(), (std::vector<Index>{5, 4, 3}));
  std::istringstream empty("# dims: 2 7\n");
  EXPECT_EQ(readTns(empty).dims(), (std::vector<Index>{2, 7}));
}

TEST(TnsIo, RejectsIndexBeyondDeclaredDims) {
  std::istringstream in("# dims: 2 2 2\n1 3 1 1.0\n");
  EXPECT_THROW(readTns(in), Error);
}

TEST(TnsIo, RejectsDimsHeaderOrderMismatch) {
  std::istringstream data("# dims: 2 2\n1 1 1 1.0\n");
  EXPECT_THROW(readTns(data), Error);
  std::istringstream expected("# dims: 2 2 2\n");
  EXPECT_THROW(readTns(expected, 4), Error);
  std::istringstream late("1 1 1 1.0\n# dims: 2 2 2\n");
  EXPECT_THROW(readTns(late), Error);
}

TEST(TnsIo, RejectsIndexBeyondIndexRange) {
  // 5000000001 would truncate to 705032705 in a 32-bit Index.
  std::istringstream in("5000000001 1 1 1.0\n");
  try {
    readTns(in);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos)
        << e.what();
  }
  std::istringstream negative("-1 1 1 1.0\n");
  EXPECT_THROW(readTns(negative), Error);
}

TEST(TnsIo, MissingFileThrows) {
  EXPECT_THROW(readTnsFile("/nonexistent/path/to.tns"), Error);
}

TEST(TnsIo, ParseErrorsNameTheFile) {
  const std::string path = testing::TempDir() + "/cstf_io_garbage.tns";
  {
    std::ofstream out(path);
    out << "1 2 3 not-a-number\n";
  }
  try {
    readTnsFile(path);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
}

TEST(BinaryIo, RoundTripsExactly) {
  CooTensor t = paperAnalog("flickr-s", 0.02);
  std::stringstream buf;
  writeBinary(buf, t);
  CooTensor back = readBinary(buf);
  ASSERT_EQ(back.nnz(), t.nnz());
  EXPECT_EQ(back.dims(), t.dims());
  for (std::size_t i = 0; i < t.nnz(); ++i) {
    EXPECT_EQ(back.nonzeros()[i], t.nonzeros()[i]);
  }
}

TEST(BinaryIo, RoundTripsExactValuesTextCannotAlwaysHold) {
  // Binary preserves bit patterns; values chosen to stress text parsing.
  CooTensor t({2, 2, 2},
              {makeNonzero3(0, 0, 0, 0.1), makeNonzero3(1, 1, 1, 1e-308)});
  std::stringstream buf;
  writeBinary(buf, t);
  CooTensor back = readBinary(buf);
  EXPECT_EQ(back.nonzeros()[0].val, 0.1);
  EXPECT_EQ(back.nonzeros()[1].val, 1e-308);
}

TEST(BinaryIo, RejectsBadMagic) {
  std::stringstream buf;
  buf << "NOTMAGIC bunch of bytes";
  EXPECT_THROW(readBinary(buf), Error);
}

TEST(BinaryIo, RejectsTruncatedStream) {
  CooTensor t({3, 3, 3}, {makeNonzero3(0, 1, 2, 1.0)});
  std::stringstream buf;
  writeBinary(buf, t);
  std::string data = buf.str();
  data.resize(data.size() - 5);
  std::stringstream cut(data);
  EXPECT_THROW(readBinary(cut), Error);
}

TEST(BinaryIo, FileRoundTripAndDispatch) {
  CooTensor t({4, 4, 4, 4}, {makeNonzero4(1, 2, 3, 0, -2.5)});
  const std::string bns = testing::TempDir() + "/cstf_io_test.bns";
  writeTensorFile(bns, t);  // dispatches to binary
  CooTensor back = readTensorFile(bns);
  ASSERT_EQ(back.nnz(), 1u);
  EXPECT_EQ(back.nonzeros()[0], t.nonzeros()[0]);

  const std::string tns = testing::TempDir() + "/cstf_io_test2.tns";
  writeTensorFile(tns, t);  // dispatches to text
  EXPECT_EQ(readTensorFile(tns).nnz(), 1u);
}

TEST(BinaryIo, BinaryIsSmallerThanTextForLargeTensors) {
  CooTensor t = paperAnalog("synt3d-s", 0.05);
  std::stringstream bin;
  std::stringstream text;
  writeBinary(bin, t);
  writeTns(text, t);
  EXPECT_LT(bin.str().size(), text.str().size());
}

}  // namespace
}  // namespace cstf::tensor
