#include "tensor/io.hpp"

#include <cmath>
#include <cstdlib>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>

#include "common/artifacts.hpp"
#include "common/binio.hpp"
#include "common/parse.hpp"
#include "common/strings.hpp"

namespace cstf::tensor {

namespace {

constexpr char kDimsHeader[] = "# dims:";

/// A 1-based .tns index or a header dim: a whole decimal token in
/// [minValue, max Index]; anything else (junk, sign, overflow) throws.
std::uint64_t parseTnsIndex(const std::string& field, std::size_t lineNo,
                            std::uint64_t minValue) {
  const std::optional<std::uint64_t> v = parseUint64(field);
  if (!v || *v < minValue) {
    throw Error(strprintf("line %zu: bad index '%s' (must be >= %llu)",
                          lineNo, field.c_str(),
                          static_cast<unsigned long long>(minValue)));
  }
  if (*v > std::numeric_limits<Index>::max()) {
    throw Error(strprintf("line %zu: index '%s' exceeds the %u-bit index "
                          "range",
                          lineNo, field.c_str(),
                          unsigned(8 * sizeof(Index))));
  }
  return *v;
}

}  // namespace

CooTensor readTns(std::istream& in, ModeId expectedOrder) {
  std::vector<Nonzero> nzs;
  std::vector<Index> dims;
  // Set by a "# dims: d1 d2 ..." header: dims are then fixed, not inferred.
  bool dimsDeclared = false;
  ModeId order = expectedOrder;
  std::string line;
  std::size_t lineNo = 0;

  while (std::getline(in, line)) {
    ++lineNo;
    if (line.rfind(kDimsHeader, 0) == 0) {
      CSTF_CHECK(!dimsDeclared && nzs.empty(),
                 strprintf("line %zu: a dims header must come once, before "
                           "the first nonzero",
                           lineNo));
      const std::vector<std::string> fields =
          splitFields(line.substr(sizeof(kDimsHeader) - 1), " \t\r");
      CSTF_CHECK(!fields.empty() && fields.size() <= kMaxOrder &&
                     (order == 0 || fields.size() == order),
                 strprintf("line %zu: dims header has %zu modes, expected "
                           "%d",
                           lineNo, fields.size(), int(order)));
      order = static_cast<ModeId>(fields.size());
      dims.clear();
      for (const std::string& f : fields) {
        dims.push_back(static_cast<Index>(parseTnsIndex(f, lineNo, 0)));
      }
      dimsDeclared = true;
      continue;
    }
    // Strip comments and blank lines.
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::vector<std::string> fields = splitFields(line, " \t\r");
    if (fields.empty()) continue;

    if (order == 0) {
      CSTF_CHECK(fields.size() >= 2 && fields.size() - 1 <= kMaxOrder,
                 strprintf("line %zu: cannot infer tensor order", lineNo));
      order = static_cast<ModeId>(fields.size() - 1);
      dims.assign(order, 0);
    }
    if (fields.size() != static_cast<std::size_t>(order) + 1) {
      throw Error(strprintf("line %zu: expected %d indices + value, got %zu",
                            lineNo, int(order), fields.size()));
    }
    if (dims.empty()) dims.assign(order, 0);

    Nonzero nz;
    nz.order = order;
    for (ModeId m = 0; m < order; ++m) {
      // .tns is 1-based.
      nz.idx[m] = static_cast<Index>(parseTnsIndex(fields[m], lineNo, 1) - 1);
      if (dimsDeclared) {
        CSTF_CHECK(nz.idx[m] < dims[m],
                   strprintf("line %zu: index '%s' exceeds the declared "
                             "mode-%d dim %u",
                             lineNo, fields[m].c_str(), int(m) + 1,
                             unsigned(dims[m])));
      } else {
        dims[m] = std::max(dims[m], nz.idx[m] + 1);
      }
    }
    char* end = nullptr;
    nz.val = std::strtod(fields[order].c_str(), &end);
    if (end == fields[order].c_str() || *end != '\0') {
      throw Error(strprintf("line %zu: bad value '%s'", lineNo,
                            fields[order].c_str()));
    }
    if (!std::isfinite(nz.val)) {
      throw Error(strprintf("line %zu: value '%s' is not finite", lineNo,
                            fields[order].c_str()));
    }
    nzs.push_back(nz);
  }

  CSTF_CHECK(order != 0, "empty .tns input");
  return CooTensor(std::move(dims), std::move(nzs));
}

CooTensor readTnsFile(const std::string& path, ModeId expectedOrder) {
  // Parse errors carry only line context; readFile adds the file.
  CooTensor t = readFile(
      path, [&](std::istream& in) { return readTns(in, expectedOrder); });
  t.setName(path);
  return t;
}

void writeTns(std::ostream& out, const CooTensor& t) {
  // Declared dims survive the round trip even when trailing slices are
  // empty (inference from the max index would shrink them).
  out << kDimsHeader;
  for (const Index d : t.dims()) out << ' ' << d;
  out << '\n';
  for (const Nonzero& nz : t.nonzeros()) {
    for (ModeId m = 0; m < nz.order; ++m) {
      out << (nz.idx[m] + 1) << ' ';
    }
    out << strprintf("%.17g", nz.val) << '\n';
  }
}

void writeTnsFile(const std::string& path, const CooTensor& t) {
  writeFileAtomic(path, [&](std::ostream& out) { writeTns(out, t); });
}

namespace {
constexpr std::string_view kBinaryMagic = "CSTFBIN1";
}  // namespace

void writeBinary(std::ostream& out, const CooTensor& t) {
  BinWriter w(out);
  w.magic(kBinaryMagic);
  w.dims(t.dims());
  w.put<std::uint64_t>(t.nnz());
  for (const Nonzero& nz : t.nonzeros()) {
    for (ModeId m = 0; m < t.order(); ++m) w.put<std::uint32_t>(nz.idx[m]);
    w.put<double>(nz.val);
  }
}

void writeBinaryFile(const std::string& path, const CooTensor& t) {
  writeFileAtomic(path, [&](std::ostream& out) { writeBinary(out, t); });
}

CooTensor readBinary(std::istream& in) {
  BinReader r(in, "CSTFBIN1 tensor");
  r.expectMagic(kBinaryMagic);
  std::vector<Index> dims = r.dims();
  const auto order = static_cast<ModeId>(dims.size());
  const std::uint64_t nnz =
      r.count(order * sizeof(std::uint32_t) + sizeof(double), "nnz");
  std::vector<Nonzero> nzs(nnz);
  for (Nonzero& nz : nzs) {
    nz.order = order;
    for (ModeId m = 0; m < order; ++m) nz.idx[m] = r.index(dims[m], "index");
    nz.val = r.finite("value");
  }
  r.finish();
  return CooTensor(std::move(dims), std::move(nzs));
}

CooTensor readBinaryFile(const std::string& path) {
  CooTensor t = readFile(path, readBinary);
  t.setName(path);
  return t;
}

namespace {
bool hasBnsExtension(const std::string& path) {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".bns") == 0;
}
}  // namespace

CooTensor readTensorFile(const std::string& path) {
  return hasBnsExtension(path) ? readBinaryFile(path) : readTnsFile(path);
}

void writeTensorFile(const std::string& path, const CooTensor& t) {
  if (hasBnsExtension(path)) {
    writeBinaryFile(path, t);
  } else {
    writeTnsFile(path, t);
  }
}

}  // namespace cstf::tensor
