// Round-trip tests for the binary model serialization layer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include "core/presence.h"
#include "ml/knn.h"
#include "ml/scaler.h"
#include "ml/svm.h"
#include "nn/layers.h"
#include "nn/supervised_autoencoder.h"
#include "util/binary_io.h"
#include "util/durable.h"
#include "util/error.h"
#include "util/rng.h"

namespace fs {
namespace {

// ---------- primitives ----------

TEST(BinaryIo, ScalarsRoundTrip) {
  std::stringstream stream;
  util::BinaryWriter writer(stream);
  writer.tag("TEST");
  writer.u64(42);
  writer.i64(-7);
  writer.f64(3.25);
  writer.str("hello");
  writer.f64_vector({1.0, 2.0});
  writer.i32_vector({-1, 5});

  util::BinaryReader reader(stream);
  reader.expect_tag("TEST");
  EXPECT_EQ(reader.u64(), 42u);
  EXPECT_EQ(reader.i64(), -7);
  EXPECT_DOUBLE_EQ(reader.f64(), 3.25);
  EXPECT_EQ(reader.str(), "hello");
  EXPECT_EQ(reader.f64_vector(), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(reader.i32_vector(), (std::vector<int>{-1, 5}));
}

TEST(BinaryIo, Crc32KnownVector) {
  // The standard CRC-32 check value: crc32("123456789") == 0xCBF43926.
  const char* data = "123456789";
  EXPECT_EQ(util::crc32(data, 9), 0xCBF43926u);
  // Seeded continuation equals the one-shot over the concatenation.
  const std::uint32_t first = util::crc32(data, 4);
  EXPECT_EQ(util::crc32(data + 4, 5, first), 0xCBF43926u);
  util::Crc32 incremental;
  incremental.update(data, 3);
  incremental.update(data + 3, 6);
  EXPECT_EQ(incremental.value(), 0xCBF43926u);
}

/// The bytewise table CRC-32 that util::crc32 must match value for value.
std::uint32_t reference_crc32(const unsigned char* data, std::size_t bytes,
                              std::uint32_t seed) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < bytes; ++i)
    c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

TEST(BinaryIo, Crc32MatchesBytewiseReference) {
  // Every length 0-257 at every start offset 0-7 (so the eight-byte steps
  // meet every alignment and tail length), each seeded with the previous
  // CRC.
  util::Rng rng(41);
  std::vector<unsigned char> buffer(257 + 8);
  for (unsigned char& b : buffer)
    b = static_cast<unsigned char>(rng.next_u64(256));
  std::uint32_t seed = 0;
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t length = 0; length <= 257; ++length) {
      const unsigned char* data = buffer.data() + offset;
      const std::uint32_t expected = reference_crc32(data, length, seed);
      ASSERT_EQ(util::crc32(data, length, seed), expected)
          << "offset " << offset << " length " << length;
      seed = expected;
    }
}

TEST(BinaryIo, SealedEnvelopeRoundTrip) {
  std::stringstream stream;
  util::write_sealed(stream, "HDRX", 3, [](util::BinaryWriter& writer) {
    writer.u64(77);
    writer.str("payload");
    writer.f64_vector({1.5, -2.5});
  });

  util::read_sealed(stream.str(), "HDRX", 3, [](util::BinaryReader& reader) {
    EXPECT_EQ(reader.u64(), 77u);
    EXPECT_EQ(reader.str(), "payload");
    EXPECT_EQ(reader.f64_vector(), (std::vector<double>{1.5, -2.5}));
  });
}

TEST(BinaryIo, SealedEnvelopeDetectsBitFlip) {
  std::stringstream stream;
  util::write_sealed(stream, "HDRX", 3, [](util::BinaryWriter& writer) {
    writer.u64(77);
    writer.str("payload");
  });
  std::string bytes = stream.str();
  // Layout: tag (4) + version (8), then the region: u64 value (8 bytes),
  // string length (8 bytes), then the chars; flip a bit inside the
  // character payload so every field still parses.
  bytes[12 + 17] ^= 0x40;
  const auto decode = [](util::BinaryReader& reader) {
    reader.u64();
    reader.str();
  };
  EXPECT_THROW(util::read_sealed(bytes, "HDRX", 3, decode), CorruptCheckpoint);
  EXPECT_THROW(util::read_sealed(stream.str(), "HDRY", 3, decode),
               CorruptCheckpoint);
  EXPECT_THROW(util::read_sealed(stream.str(), "HDRX", 4, decode),
               CorruptCheckpoint);
  // A body that leaves region bytes unread is a format mismatch too.
  EXPECT_THROW(util::read_sealed(stream.str(), "HDRX", 3,
                                 [](util::BinaryReader& reader) {
                                   reader.u64();
                                 }),
               CorruptCheckpoint);
}

TEST(BinaryIo, BoundedReaderRefusesCountsPastTheEnd) {
  std::stringstream stream;
  util::BinaryWriter writer(stream);
  writer.u64(3);  // claims three doubles; only two follow
  writer.f64(1.0);
  writer.f64(2.0);
  util::BinaryReader reader(stream, 24);
  EXPECT_THROW(reader.f64_vector(), CorruptCheckpoint);
}

TEST(BinaryIo, TagMismatchThrows) {
  std::stringstream stream;
  util::BinaryWriter writer(stream);
  writer.tag("AAAA");
  util::BinaryReader reader(stream);
  EXPECT_THROW(reader.expect_tag("BBBB"), std::runtime_error);
}

TEST(BinaryIo, TruncatedStreamThrows) {
  std::stringstream stream;
  util::BinaryWriter writer(stream);
  writer.u64(1);
  util::BinaryReader reader(stream);
  reader.u64();
  EXPECT_THROW(reader.u64(), std::runtime_error);
}

// ---------- nn ----------

TEST(Serialization, DenseRoundTripPreservesInference) {
  util::Rng rng(3);
  nn::Dense layer(4, 3, nn::Activation::kTanh, rng);
  nn::Matrix x(2, 4);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal();

  std::stringstream stream;
  util::BinaryWriter writer(stream);
  layer.save(writer);
  util::BinaryReader reader(stream);
  const nn::Dense loaded = nn::Dense::load(reader);

  const nn::Matrix before = layer.infer(x);
  const nn::Matrix after = loaded.infer(x);
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_DOUBLE_EQ(before.data()[i], after.data()[i]);
  EXPECT_EQ(loaded.activation(), nn::Activation::kTanh);
}

TEST(Serialization, DenseRecordIsTheSameInEitherWeightLayout) {
  // Input-major weights stream out transposed; the record must be the
  // bytes the same layer writes once made output-major. 300 inputs span
  // more than one streaming block.
  util::Rng rng(9);
  nn::Dense layer(300, 5, nn::Activation::kRelu, rng);
  std::stringstream input_major, output_major;
  util::BinaryWriter in_writer(input_major);
  layer.save(in_writer);
  layer.make_output_major();
  util::BinaryWriter out_writer(output_major);
  layer.save(out_writer);
  EXPECT_EQ(input_major.str(), output_major.str());
  EXPECT_GT(input_major.str().size(), 300u * 5u * sizeof(double));
}

TEST(Serialization, MlpRoundTrip) {
  util::Rng rng(5);
  nn::Mlp mlp({3, 8, 2}, nn::Activation::kRelu, nn::Activation::kIdentity,
              rng);
  nn::Matrix x(4, 3);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal();

  std::stringstream stream;
  util::BinaryWriter writer(stream);
  mlp.save(writer);
  util::BinaryReader reader(stream);
  const nn::Mlp loaded = nn::Mlp::load(reader);

  const nn::Matrix before = mlp.infer(x);
  const nn::Matrix after = loaded.infer(x);
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_DOUBLE_EQ(before.data()[i], after.data()[i]);
}

TEST(Serialization, SupervisedAutoencoderRoundTrip) {
  util::Rng rng(7);
  nn::AutoencoderConfig cfg;
  cfg.encoder_dims = {10, 6, 3};
  cfg.epochs = 10;
  nn::SupervisedAutoencoder ae(cfg);
  nn::Matrix x(32, 10);
  std::vector<int> y(32);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal();
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 2);
  ae.train(x, y);

  std::stringstream stream;
  util::BinaryWriter writer(stream);
  ae.save(writer);
  util::BinaryReader reader(stream);
  const nn::SupervisedAutoencoder loaded =
      nn::SupervisedAutoencoder::load(reader);

  EXPECT_EQ(loaded.input_dim(), ae.input_dim());
  EXPECT_EQ(loaded.code_dim(), ae.code_dim());
  const auto before = ae.predict_proba(x);
  const auto after = loaded.predict_proba(x);
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_DOUBLE_EQ(before[i], after[i]);
  const nn::Matrix code_before = ae.encode(x);
  const nn::Matrix code_after = loaded.encode(x);
  for (std::size_t i = 0; i < code_before.size(); ++i)
    EXPECT_DOUBLE_EQ(code_before.data()[i], code_after.data()[i]);
}

// ---------- ml ----------

TEST(Serialization, ScalerRoundTrip) {
  ml::StandardScaler scaler;
  scaler.fit(nn::Matrix::from_rows({{1, 10}, {3, 20}, {5, 60}}));
  std::stringstream stream;
  util::BinaryWriter writer(stream);
  scaler.save(writer);
  util::BinaryReader reader(stream);
  const ml::StandardScaler loaded = ml::StandardScaler::load(reader);
  EXPECT_EQ(loaded.mean(), scaler.mean());
  EXPECT_EQ(loaded.stddev(), scaler.stddev());
}

TEST(Serialization, KnnRoundTrip) {
  util::Rng rng(11);
  nn::Matrix x(30, 4);
  std::vector<int> y(30);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal();
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 2);
  ml::KnnClassifier knn(5);
  knn.fit(x, y);

  std::stringstream stream;
  util::BinaryWriter writer(stream);
  knn.save(writer);
  util::BinaryReader reader(stream);
  const ml::KnnClassifier loaded = ml::KnnClassifier::load(reader);
  EXPECT_EQ(loaded.k(), 5u);
  const auto before = knn.predict_proba(x);
  const auto after = loaded.predict_proba(x);
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_DOUBLE_EQ(before[i], after[i]);
}

TEST(Serialization, SvmRoundTrip) {
  util::Rng rng(13);
  nn::Matrix x(60, 3);
  std::vector<int> y(60);
  for (std::size_t i = 0; i < 60; ++i) {
    y[i] = static_cast<int>(i % 2);
    for (std::size_t c = 0; c < 3; ++c)
      x(i, c) = rng.normal(y[i] ? 1.0 : -1.0, 0.8);
  }
  ml::SvmClassifier svm;
  svm.fit(x, y);

  std::stringstream stream;
  util::BinaryWriter writer(stream);
  svm.save(writer);
  util::BinaryReader reader(stream);
  const ml::SvmClassifier loaded = ml::SvmClassifier::load(reader);
  EXPECT_TRUE(loaded.trained());
  EXPECT_EQ(loaded.support_vector_count(), svm.support_vector_count());
  const auto before = svm.predict_proba(x);
  const auto after = loaded.predict_proba(x);
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_DOUBLE_EQ(before[i], after[i]);
}

// ---------- core ----------

TEST(Serialization, PresenceModelRoundTrip) {
  util::Rng rng(17);
  const std::size_t dim = 40;
  nn::Matrix x(80, dim);
  std::vector<int> y(80);
  for (std::size_t i = 0; i < 80; ++i) {
    y[i] = static_cast<int>(i % 2);
    for (std::size_t c = 0; c < dim; ++c)
      x(i, c) = std::log1p(
          (y[i] && c > dim / 2 ? 1.0 : 0.0) + (rng.uniform() < 0.2));
  }
  core::PresenceModelConfig cfg;
  cfg.feature_dim = 8;
  cfg.epochs = 8;
  core::PresenceModel model(cfg);
  model.train(x, y);

  std::stringstream stream;
  util::BinaryWriter writer(stream);
  model.save(writer);
  util::BinaryReader reader(stream);
  const core::PresenceModel loaded = core::PresenceModel::load(reader);
  EXPECT_TRUE(loaded.trained());
  EXPECT_EQ(loaded.feature_dim(), model.feature_dim());
  const auto before = model.predict_proba(x);
  const auto after = loaded.predict_proba(x);
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_DOUBLE_EQ(before[i], after[i]);
}

TEST(Serialization, UntrainedModelRefusesToSave) {
  core::PresenceModel model(core::PresenceModelConfig{});
  std::stringstream stream;
  util::BinaryWriter writer(stream);
  EXPECT_THROW(model.save(writer), std::logic_error);
}

// ---------- hostile shapes ----------
// rows = 2, cols = 2^63 and no data: rows * cols wraps to 0, the size of
// the empty buffer, so a product-based shape check would accept it.

constexpr std::uint64_t kWrappingCols = std::uint64_t{1} << 63;

TEST(Serialization, DenseRefusesWrappingShape) {
  std::stringstream stream;
  util::BinaryWriter writer(stream);
  writer.tag("DNSE");
  writer.u64(2);
  writer.u64(kWrappingCols);
  writer.u64(0);  // activation
  writer.f64_vector({});
  writer.f64_vector({0.0, 0.0});  // bias: one per row
  util::BinaryReader reader(stream);
  EXPECT_THROW(nn::Dense::load(reader), CorruptCheckpoint);
}

TEST(Serialization, KnnRefusesWrappingShape) {
  std::stringstream stream;
  util::BinaryWriter writer(stream);
  writer.tag("KNN0");
  writer.u64(1);  // k
  writer.u64(2);
  writer.u64(kWrappingCols);
  writer.f64_vector({});
  writer.i32_vector({0, 1});  // labels: one per row
  util::BinaryReader reader(stream);
  EXPECT_THROW(ml::KnnClassifier::load(reader), CorruptCheckpoint);
}

TEST(Serialization, SvmRefusesWrappingShape) {
  std::stringstream stream;
  util::BinaryWriter writer(stream);
  writer.tag("SVM0");
  writer.f64(1.0);  // gamma
  writer.f64(0.0);  // bias
  writer.u64(2);
  writer.u64(kWrappingCols);
  writer.f64_vector({});
  writer.f64_vector({1.0, -1.0});  // alpha*y: one per row
  util::BinaryReader reader(stream);
  EXPECT_THROW(ml::SvmClassifier::load(reader), CorruptCheckpoint);
}

}  // namespace
}  // namespace fs
