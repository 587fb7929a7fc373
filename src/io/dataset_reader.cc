#include "io/dataset_reader.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "io/binary_format.h"
#include "uncertain/dirac_pdf.h"
#include "uncertain/discrete_pdf.h"
#include "uncertain/exponential_pdf.h"
#include "uncertain/moments.h"
#include "uncertain/normal_pdf.h"
#include "uncertain/uniform_pdf.h"

namespace uclust::io {

namespace {

// Bounds-checked cursor over one object record's bytes.
class RecordCursor {
 public:
  RecordCursor(const unsigned char* data, std::size_t size)
      : data_(data), size_(size) {}

  template <typename T>
  bool Get(T* out) {
    if (pos_ + sizeof(T) > size_) return false;
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool exhausted() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// One pdf record's tag and constructor-exact parameters (binary_format.h):
// dirac a = x; uniform a = lo, b = hi; normal a = mu, b = sigma,
// c = half-width; exponential a = w, b = rate; discrete values + weights.
struct PdfParams {
  uint8_t tag = 0;
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
  std::vector<double> values;
  std::vector<double> weights;
};

// Decodes and validates one pdf record; false on malformed input (truncated
// payload or parameters outside the constructors' domains — non-finite
// values included, so corrupt files are rejected rather than mis-parsed).
// The only place pdf records are checked.
bool DecodePdfParams(RecordCursor* cur, PdfParams* p) {
  if (!cur->Get(&p->tag)) return false;
  switch (p->tag) {
    case kPdfDirac:
      return cur->Get(&p->a) && std::isfinite(p->a);
    case kPdfUniform:
      return cur->Get(&p->a) && cur->Get(&p->b) && std::isfinite(p->a) &&
             std::isfinite(p->b) && p->a < p->b;
    case kPdfNormal:
      return cur->Get(&p->a) && cur->Get(&p->b) && cur->Get(&p->c) &&
             std::isfinite(p->a) && std::isfinite(p->b) &&
             std::isfinite(p->c) && p->b > 0.0 && p->c >= kMinNormalHalfWidth;
    case kPdfExponential:
      // A rate so small that rate^2 underflows gives an infinite variance
      // and a support of [-inf, NaN].
      return cur->Get(&p->a) && cur->Get(&p->b) && std::isfinite(p->a) &&
             std::isfinite(p->b) && p->b > 0.0 &&
             std::isfinite(
                 uncertain::TruncatedExponentialPdf::TruncatedVariance(p->b));
    case kPdfDiscrete: {
      uint32_t count = 0;
      if (!cur->Get(&count) || count == 0) return false;
      // The record must physically hold count values + count weights;
      // checking before allocating keeps an untrusted count field from
      // triggering a huge allocation (which a CI ulimit run would
      // misreport as the expected OOM).
      if (static_cast<std::size_t>(count) * 2 * sizeof(double) >
          cur->remaining()) {
        return false;
      }
      p->values.resize(count);
      p->weights.resize(count);
      for (double& v : p->values) {
        if (!cur->Get(&v) || !std::isfinite(v)) return false;
      }
      double sum = 0.0;
      for (double& w : p->weights) {
        if (!cur->Get(&w) || !std::isfinite(w) || !(w > 0.0)) return false;
        sum += w;
      }
      return std::fabs(sum - 1.0) <= kWeightSumTolerance;
    }
    default:
      return false;
  }
}

// Builds the pdf a validated record describes (moves the discrete columns
// out of `p`).
uncertain::PdfPtr MakePdf(PdfParams* p) {
  switch (p->tag) {
    case kPdfDirac:
      return uncertain::DiracPdf::Make(p->a);
    case kPdfUniform:
      return std::make_shared<uncertain::UniformPdf>(p->a, p->b);
    case kPdfNormal:
      return uncertain::TruncatedNormalPdf::FromHalfWidth(p->a, p->b, p->c);
    case kPdfExponential:
      return uncertain::TruncatedExponentialPdf::Make(p->a, p->b);
    default:
      return uncertain::DiscretePdf::FromNormalized(std::move(p->values),
                                                    std::move(p->weights));
  }
}

// One-entry memo of TruncatedNormalPdf::VarianceFactor. Datasets draw their
// normal half-widths from very few values (usually one coverage), so the
// erfc + exp behind the factor runs once per change of c instead of once
// per entry. The stored factor is the function's own return value, so the
// memo never changes a bit.
class VarianceFactorMemo {
 public:
  double Get(double half_width) {
    if (half_width != c_) {  // the NaN start compares unequal to any c
      c_ = half_width;
      factor_ = uncertain::TruncatedNormalPdf::VarianceFactor(half_width);
    }
    return factor_;
  }

 private:
  double c_ = std::numeric_limits<double>::quiet_NaN();
  double factor_ = 0.0;
};

// The moments the pdf MakePdf builds would report, from the same static
// formulas its class calls — bit-identical without building it.
uncertain::PdfMoments MomentsOf(const PdfParams& p, VarianceFactorMemo* memo) {
  using uncertain::Pdf;
  switch (p.tag) {
    case kPdfDirac:
      return uncertain::DiracPdf::MomentsOf(p.a);
    case kPdfUniform:
      return uncertain::UniformPdf::MomentsOf(p.a, p.b);
    case kPdfNormal:
      // TruncatedNormalPdf::TruncatedVariance(b, c), with the factor memoized.
      return {p.a, Pdf::SecondMomentOf(p.a, (p.b * p.b) * memo->Get(p.c))};
    case kPdfExponential:
      return {p.a,
              Pdf::SecondMomentOf(
                  p.a, uncertain::TruncatedExponentialPdf::TruncatedVariance(
                           p.b))};
    default:
      return uncertain::DiscretePdf::MomentsOf(p.values, p.weights);
  }
}

}  // namespace

BinaryDatasetReader::~BinaryDatasetReader() {
  if (file_ != nullptr) std::fclose(file_);
}

common::Status BinaryDatasetReader::Corrupt(const std::string& msg) const {
  return common::Status::IOError(path_ + ": " + msg);
}

common::Status BinaryDatasetReader::Open(const std::string& path) {
  if (file_ != nullptr) {
    return common::Status::InvalidArgument("reader is already open");
  }
  path_ = path;
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) return common::Status::IOError("cannot open " + path);
  if (std::fseek(file_, 0, SEEK_END) != 0) return Corrupt("cannot seek");
  const long end = std::ftell(file_);
  if (end < 0 || std::fseek(file_, 0, SEEK_SET) != 0) {
    return Corrupt("cannot determine file size");
  }
  file_size_ = static_cast<uint64_t>(end);

  unsigned char header[kHeaderBytes];
  if (std::fread(header, 1, sizeof(header), file_) != sizeof(header)) {
    return Corrupt("file too short for a dataset header");
  }
  if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
    return Corrupt("bad magic (not a uclust binary dataset)");
  }
  uint32_t endian = 0, version = 0, flags = 0, name_len = 0;
  uint64_t n = 0, dims = 0;
  int32_t num_classes = 0;
  std::memcpy(&endian, header + 8, sizeof(endian));
  std::memcpy(&version, header + 12, sizeof(version));
  std::memcpy(&n, header + 16, sizeof(n));
  std::memcpy(&dims, header + 24, sizeof(dims));
  std::memcpy(&num_classes, header + 32, sizeof(num_classes));
  std::memcpy(&flags, header + 36, sizeof(flags));
  std::memcpy(&labels_offset_, header + 40, sizeof(labels_offset_));
  std::memcpy(&name_len, header + 48, sizeof(name_len));
  if (endian == kEndianTagSwapped) {
    return Corrupt("file was written on an opposite-endian machine");
  }
  if (endian != kEndianTag) {
    return Corrupt("bad endianness canary (corrupt header)");
  }
  if (version == 0 || version > kFormatVersion) {
    return Corrupt("unsupported format version " + std::to_string(version) +
                   " (reader supports up to " +
                   std::to_string(kFormatVersion) + ")");
  }
  if (dims == 0) return Corrupt("header declares zero dimensions");
  if (num_classes < 0) return Corrupt("header declares negative num_classes");
  // Every object record occupies at least 4 (length prefix) + 9*dims (the
  // smallest pdf record is a tagged Dirac) bytes, so a header whose n/dims
  // cannot physically fit the file is rejected up front — consumers may
  // then size allocations from these fields without re-validating.
  if (n > file_size_ || dims > file_size_ ||
      static_cast<unsigned __int128>(n) * (4 + 9 * dims) >
          static_cast<unsigned __int128>(file_size_)) {
    return Corrupt("header object count/dims inconsistent with file size");
  }
  has_labels_ = (flags & kFlagHasLabels) != 0;
  if (has_labels_ && labels_offset_ < kHeaderBytes + name_len) {
    return Corrupt("labels offset points into the header");
  }
  if (kHeaderBytes + static_cast<uint64_t>(name_len) > file_size_) {
    return Corrupt("header name length inconsistent with file size");
  }
  n_ = static_cast<std::size_t>(n);
  dims_ = static_cast<std::size_t>(dims);
  num_classes_ = num_classes;
  name_.resize(name_len);
  if (name_len > 0 &&
      std::fread(name_.data(), 1, name_len, file_) != name_len) {
    return Corrupt("file too short for the dataset name");
  }
  cursor_ = 0;
  return common::Status::Ok();
}

template <typename OnPdf, typename OnRecord>
common::Status BinaryDatasetReader::DecodeRecords(std::size_t count,
                                                  OnPdf&& on_pdf,
                                                  OnRecord&& on_record) {
  PdfParams params;
  for (std::size_t row = 0; row < count; ++row) {
    uint32_t payload = 0;
    if (std::fread(&payload, sizeof(payload), 1, file_) != 1) {
      return Corrupt("truncated file: missing record length for object " +
                     std::to_string(cursor_));
    }
    if (payload > file_size_) {
      // Bounds-check the untrusted length before allocating: a corrupt
      // record must surface as an error, not as an attempted huge alloc.
      return Corrupt("object record " + std::to_string(cursor_) +
                     " declares more bytes than the file holds");
    }
    record_buf_.resize(payload);
    if (payload > 0 &&
        std::fread(record_buf_.data(), 1, payload, file_) != payload) {
      return Corrupt("truncated file: short object record " +
                     std::to_string(cursor_));
    }
    RecordCursor cur(record_buf_.data(), record_buf_.size());
    for (std::size_t j = 0; j < dims_; ++j) {
      if (!DecodePdfParams(&cur, &params)) {
        return Corrupt("malformed pdf record in object " +
                       std::to_string(cursor_));
      }
      on_pdf(j, params);
    }
    if (!cur.exhausted()) {
      return Corrupt("trailing bytes in object record " +
                     std::to_string(cursor_));
    }
    on_record(row);
    ++cursor_;
  }
  return common::Status::Ok();
}

common::Status BinaryDatasetReader::ReadBatch(
    std::size_t max, std::vector<uncertain::UncertainObject>* out) {
  if (file_ == nullptr) {
    return common::Status::InvalidArgument("reader is not open");
  }
  if (max == 0) return common::Status::InvalidArgument("max must be > 0");
  out->clear();
  const std::size_t count = std::min(max, remaining());
  out->reserve(count);
  std::vector<uncertain::PdfPtr> pdfs;
  return DecodeRecords(
      count,
      [&](std::size_t j, PdfParams& p) {
        if (j == 0) pdfs.reserve(dims_);
        pdfs.push_back(MakePdf(&p));
      },
      [&](std::size_t) {
        out->emplace_back(std::move(pdfs));
        pdfs.clear();
      });
}

common::Status BinaryDatasetReader::ReadMomentRows(std::size_t max,
                                                   std::size_t* rows,
                                                   double* mean, double* mu2,
                                                   double* var,
                                                   double* total_var) {
  if (file_ == nullptr) {
    return common::Status::InvalidArgument("reader is not open");
  }
  if (max == 0) return common::Status::InvalidArgument("max must be > 0");
  *rows = 0;
  const std::size_t m = dims_;
  // One row of (mean, mu2, var) scratch, packed into place per record.
  std::vector<double> row_moments(3 * m);
  double* const row_mean = row_moments.data();
  double* const row_mu2 = row_mean + m;
  double* const row_var = row_mu2 + m;
  VarianceFactorMemo memo;  // per call: no state outlives the batch
  return DecodeRecords(
      std::min(max, remaining()),
      [&](std::size_t j, const PdfParams& p) {
        const uncertain::PdfMoments mom = MomentsOf(p, &memo);
        row_mean[j] = mom.mean;
        row_mu2[j] = mom.mu2;
        row_var[j] = uncertain::Pdf::VarianceOf(mom.mean, mom.mu2);
      },
      [&](std::size_t row) {
        const std::size_t at = row * m;
        uncertain::MomentMatrix::PackRow(
            {row_mean, m}, {row_mu2, m}, {row_var, m}, mean + at, mu2 + at,
            var + at, total_var + row);
        *rows = row + 1;
      });
}

common::Status BinaryDatasetReader::ReadLabels(std::vector<int>* labels) {
  if (file_ == nullptr) {
    return common::Status::InvalidArgument("reader is not open");
  }
  labels->clear();
  if (!has_labels_) return common::Status::Ok();
  const long saved = std::ftell(file_);
  if (saved < 0) return Corrupt("ftell failed");
  if (std::fseek(file_, static_cast<long>(labels_offset_), SEEK_SET) != 0) {
    return Corrupt("cannot seek to labels column");
  }
  std::vector<int32_t> raw(n_);
  if (n_ > 0 && std::fread(raw.data(), sizeof(int32_t), n_, file_) != n_) {
    return Corrupt("truncated labels column");
  }
  labels->assign(raw.begin(), raw.end());
  if (std::fseek(file_, saved, SEEK_SET) != 0) {
    return Corrupt("cannot restore stream position");
  }
  return common::Status::Ok();
}

common::Result<data::UncertainDataset> ReadUncertainDataset(
    const std::string& path) {
  BinaryDatasetReader reader;
  UCLUST_RETURN_NOT_OK(reader.Open(path));
  std::vector<uncertain::UncertainObject> objects;
  // reader.size() is validated against the physical file size on Open, so
  // this reserve is bounded; cap it anyway — growth is geometric beyond.
  objects.reserve(std::min<std::size_t>(reader.size(), 1u << 20));
  std::vector<uncertain::UncertainObject> batch;
  while (reader.remaining() > 0) {
    UCLUST_RETURN_NOT_OK(reader.ReadBatch(4096, &batch));
    for (auto& o : batch) objects.push_back(std::move(o));
  }
  std::vector<int> labels;
  UCLUST_RETURN_NOT_OK(reader.ReadLabels(&labels));
  data::UncertainDataset ds(reader.name(), std::move(objects),
                            std::move(labels), reader.num_classes());
  // Annotate provenance: the sample-store factory keys its sidecar reuse
  // guard (and the default sidecar location) off the source file.
  ds.set_source_path(path);
  return ds;
}

}  // namespace uclust::io
