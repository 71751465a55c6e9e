//! Benchmark scenario definition and builder.

use llmib_frameworks::FrameworkId;
use llmib_hardware::HardwareId;
use llmib_models::ModelId;
use llmib_types::{Error, Parallelism, Precision, Result, TokenShape};
use serde::Serialize;

/// Speculative-decoding configuration (paper §IV-B5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SpecDecode {
    /// Draft model (the paper uses LLaMA-68M).
    pub draft: ModelId,
    /// Tokens drafted per verification cycle.
    pub lookahead: u32,
    /// Base per-token acceptance probability at short context.
    pub base_acceptance: f64,
}

impl Default for SpecDecode {
    fn default() -> Self {
        Self {
            draft: ModelId::Llama68m,
            lookahead: 4,
            base_acceptance: 0.8,
        }
    }
}

/// One fully-specified benchmark point.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Scenario {
    /// Model under test.
    pub model: ModelId,
    /// Accelerator platform.
    pub hardware: HardwareId,
    /// Inference framework.
    pub framework: FrameworkId,
    /// Numeric precision (paper default: 16-bit).
    pub precision: Precision,
    /// Device parallelism layout ("the number of GPUs is equal to the TP
    /// size" in the paper's framework studies).
    pub parallelism: Parallelism,
    /// Input/output/batch token shape.
    pub shape: TokenShape,
    /// Whether KV caching is enabled (disabled only for Fig. 2a's
    /// ablation; every real deployment enables it).
    pub kv_cache: bool,
    /// Override the framework's default KV block size in tokens
    /// (Fig. 2b's sweep). `None` uses the framework default.
    pub kv_block_override: Option<u32>,
    /// Speculative decoding, if enabled (Fig. 4b).
    pub spec_decode: Option<SpecDecode>,
}

impl Scenario {
    /// Start building a scenario.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// Convenience constructor for the common single-device FP16 case.
    pub fn simple(
        model: ModelId,
        hardware: HardwareId,
        framework: FrameworkId,
        shape: TokenShape,
    ) -> Self {
        Self {
            model,
            hardware,
            framework,
            precision: Precision::Fp16,
            parallelism: Parallelism::SINGLE,
            shape,
            kv_cache: true,
            kv_block_override: None,
            spec_decode: None,
        }
    }

    /// Number of devices this scenario occupies.
    pub fn device_count(&self) -> u32 {
        self.parallelism.device_count()
    }
}

/// Builder for [`Scenario`] with paper defaults.
#[derive(Debug, Clone, Default)]
pub struct ScenarioBuilder {
    model: Option<ModelId>,
    hardware: Option<HardwareId>,
    framework: Option<FrameworkId>,
    precision: Option<Precision>,
    parallelism: Option<Parallelism>,
    input_tokens: Option<u32>,
    output_tokens: Option<u32>,
    batch_size: Option<u32>,
    kv_cache: Option<bool>,
    spec_decode: Option<SpecDecode>,
}

impl ScenarioBuilder {
    /// Set the model under test (required).
    pub fn model(mut self, m: ModelId) -> Self {
        self.model = Some(m);
        self
    }

    /// Set the accelerator (required).
    pub fn hardware(mut self, h: HardwareId) -> Self {
        self.hardware = Some(h);
        self
    }

    /// Set the framework (required).
    pub fn framework(mut self, f: FrameworkId) -> Self {
        self.framework = Some(f);
        self
    }

    /// Set the precision (default FP16).
    pub fn precision(mut self, p: Precision) -> Self {
        self.precision = Some(p);
        self
    }

    /// Set the parallelism layout (default single device).
    pub fn parallelism(mut self, p: Parallelism) -> Self {
        self.parallelism = Some(p);
        self
    }

    /// Set prompt length in tokens (default 128).
    pub fn input_tokens(mut self, n: u32) -> Self {
        self.input_tokens = Some(n);
        self
    }

    /// Set generation length in tokens (default 128).
    pub fn output_tokens(mut self, n: u32) -> Self {
        self.output_tokens = Some(n);
        self
    }

    /// Set batch size (default 1).
    pub fn batch_size(mut self, n: u32) -> Self {
        self.batch_size = Some(n);
        self
    }

    /// Enable/disable KV caching (default enabled).
    pub fn kv_cache(mut self, enabled: bool) -> Self {
        self.kv_cache = Some(enabled);
        self
    }

    /// Enable speculative decoding.
    pub fn spec_decode(mut self, sd: SpecDecode) -> Self {
        self.spec_decode = Some(sd);
        self
    }

    /// Finalize; errors if a required field is missing or inconsistent.
    pub fn build(self) -> Result<Scenario> {
        let model = self
            .model
            .ok_or_else(|| Error::InvalidConfig("scenario missing model".into()))?;
        let hardware = self
            .hardware
            .ok_or_else(|| Error::InvalidConfig("scenario missing hardware".into()))?;
        let framework = self
            .framework
            .ok_or_else(|| Error::InvalidConfig("scenario missing framework".into()))?;
        let input = self.input_tokens.unwrap_or(128);
        let output = self.output_tokens.unwrap_or(128);
        let batch = self.batch_size.unwrap_or(1);
        if input == 0 || output == 0 || batch == 0 {
            return Err(Error::InvalidConfig(
                "token shape components must be positive".into(),
            ));
        }
        let cfg = model.config();
        cfg.validate()?;
        if input + output > cfg.max_seq_len {
            return Err(Error::InvalidConfig(format!(
                "{}: input+output {} exceeds max sequence length {}",
                cfg.name,
                input + output,
                cfg.max_seq_len
            )));
        }
        Ok(Scenario {
            model,
            hardware,
            framework,
            precision: self.precision.unwrap_or(Precision::Fp16),
            parallelism: self.parallelism.unwrap_or(Parallelism::SINGLE),
            shape: TokenShape::new(input, output, batch),
            kv_cache: self.kv_cache.unwrap_or(true),
            kv_block_override: None,
            spec_decode: self.spec_decode,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let s = Scenario::builder()
            .model(ModelId::Llama3_8b)
            .hardware(HardwareId::A100)
            .framework(FrameworkId::Vllm)
            .build()
            .unwrap();
        assert_eq!(s.precision, Precision::Fp16);
        assert_eq!(s.parallelism, Parallelism::SINGLE);
        assert_eq!(s.shape, TokenShape::new(128, 128, 1));
        assert!(s.kv_cache);
    }

    #[test]
    fn builder_requires_model() {
        let err = Scenario::builder()
            .hardware(HardwareId::A100)
            .framework(FrameworkId::Vllm)
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)));
    }

    #[test]
    fn rejects_sequences_beyond_model_window() {
        // LLaMA-2-7B max sequence is 4096; 4096+4096 must be rejected.
        let err = Scenario::builder()
            .model(ModelId::Llama2_7b)
            .hardware(HardwareId::A100)
            .framework(FrameworkId::Vllm)
            .input_tokens(4096)
            .output_tokens(4096)
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)));
    }

    #[test]
    fn rejects_zero_batch() {
        let err = Scenario::builder()
            .model(ModelId::Llama3_8b)
            .hardware(HardwareId::A100)
            .framework(FrameworkId::Vllm)
            .batch_size(0)
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)));
    }

    #[test]
    fn simple_constructor() {
        let s = Scenario::simple(
            ModelId::Mistral7b,
            HardwareId::H100,
            FrameworkId::TrtLlm,
            TokenShape::square(1024, 16),
        );
        assert_eq!(s.device_count(), 1);
        assert!(s.spec_decode.is_none());
    }

    #[test]
    fn spec_decode_defaults() {
        let sd = SpecDecode::default();
        assert_eq!(sd.draft, ModelId::Llama68m);
        assert!(sd.lookahead >= 1);
        assert!((0.0..=1.0).contains(&sd.base_acceptance));
    }
}
