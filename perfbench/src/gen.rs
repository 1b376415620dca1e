//! Serving inputs: the pinned policy fixtures and the seeded
//! observation generator.
//!
//! Each tenant controls one building of one of the paper's two cities.
//! Its observations come from stepping an `hvac-env` January day under
//! its own fixture policy (through the same degradation guard the
//! fleet uses), so request bodies follow the distribution the trees
//! were extracted on. Every body is rendered before any clock starts.

use std::fmt::Write as _;
use veri_hvac::audit::sha256_hex;
use veri_hvac::control::{DtPolicy, GuardConfig, GuardedPolicy};
use veri_hvac::env::{
    run_episode, ComfortRange, EnvConfig, HvacEnv, Observation, Policy, SetpointAction,
};
use veri_hvac::sim::{SimClock, STEPS_PER_DAY};
use veri_hvac::stats::split_seed;

/// Paper-scale policies (`veri_hvac extract --paper`, seed 2024) with
/// the SHA-256 of their `dtree v1` text. Serving inputs stay fixed when
/// extraction changes; a fixture that no longer hashes to its pin is
/// refused.
pub const FIXTURES: [(&str, &str); 2] = [
    (
        "pittsburgh",
        "082b5027d485b7e3177451d62b379db026ee02a9041cf3e9f1c6616fa8847e5e",
    ),
    (
        "tucson",
        "dc7d1f007494a431b7c4bcab9dfbe3716762c2e79c56531b6b61c7ebbf9aa0b2",
    ),
];

/// Observation field names in `Observation::to_vector` order, as the
/// serve path's `observation_from_json` accepts them.
const FIELDS: [&str; 7] = [
    "zone_temperature",
    "outdoor_temperature",
    "relative_humidity",
    "wind_speed",
    "solar_radiation",
    "occupant_count",
    "hour_of_day",
];

/// Reads fixture `index` of [`FIXTURES`] and checks its pinned hash.
///
/// # Errors
///
/// A missing file or a hash that differs from the pin.
pub fn read_fixture(index: usize) -> Result<String, String> {
    let (city, pin) = FIXTURES[index];
    let path = format!("{}/fixtures/{city}.dtree", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    check_pin(&text, pin).map_err(|e| format!("{path}: {e}"))?;
    Ok(text)
}

/// Checks that `text` hashes to `pin`.
pub fn check_pin(text: &str, pin: &str) -> Result<(), String> {
    let got = sha256_hex(text.as_bytes());
    if got == pin {
        Ok(())
    } else {
        Err(format!("SHA-256 {got} differs from the pinned {pin}"))
    }
}

/// Tenant `i`'s id.
pub fn tenant_id(i: usize) -> String {
    format!("b{i:03}")
}

/// Tenant `i`'s fixture index: even tenants are in Pittsburgh, odd in
/// Tucson.
pub fn tenant_fixture(i: usize) -> usize {
    i % FIXTURES.len()
}

/// The guard every tenant runs behind (the fleet's serve preset).
pub fn guard(policy: DtPolicy) -> GuardedPolicy<DtPolicy> {
    GuardedPolicy::new(policy, GuardConfig::new(ComfortRange::winter()))
}

/// One tenant's generated day.
#[derive(Debug, Clone)]
pub struct TenantDay {
    /// The tenant's environment: its city, a seeded weather draw, and a
    /// seeded January weekday.
    pub env: EnvConfig,
    /// What the building reported at each 15-minute step.
    pub observations: Vec<Observation>,
}

/// Tenant `i`'s environment for run seed `seed`: one January weekday
/// of its city under a weather draw of its own.
pub fn tenant_env(seed: u64, i: usize) -> EnvConfig {
    let base = if tenant_fixture(i) == 0 {
        EnvConfig::pittsburgh()
    } else {
        EnvConfig::tucson()
    };
    // January 1st is a Friday (weekday 4); weekdays 5 and 6 are the
    // weekend, when the office is empty and every step is trivially
    // comfortable.
    let weekdays: Vec<u16> = (0..31u16).filter(|d| (4 + d) % 7 < 5).collect();
    let day = weekdays[(split_seed(seed, 2 * i as u64 + 1) % weekdays.len() as u64) as usize];
    let mut env = base
        .with_seed(split_seed(seed, 2 * i as u64))
        .with_episode_steps(STEPS_PER_DAY);
    env.start_clock = SimClock::with_start(((4 + day) % 7) as u8, day);
    env
}

/// Steps tenant `i`'s day under `policy` behind a fresh guard.
///
/// # Errors
///
/// Environment failures.
pub fn tenant_day(seed: u64, i: usize, policy: &DtPolicy) -> Result<TenantDay, String> {
    let env = tenant_env(seed, i);
    let mut recorder = Recorder {
        guard: guard(policy.clone()),
        observations: Vec::with_capacity(STEPS_PER_DAY),
    };
    let mut sim = HvacEnv::new(env.clone()).map_err(|e| format!("tenant {i} env: {e}"))?;
    run_episode(&mut sim, &mut recorder).map_err(|e| format!("tenant {i} episode: {e}"))?;
    Ok(TenantDay {
        env,
        observations: recorder.observations,
    })
}

/// Energy (kWh) and comfort counts `(occupied, violating)` of `env`'s
/// day when its setpoints are `actions`, replayed open loop.
///
/// # Errors
///
/// Environment failures.
pub fn day_quality(
    env: &EnvConfig,
    actions: &[SetpointAction],
) -> Result<(f64, usize, usize), String> {
    let mut sim = HvacEnv::new(env.clone()).map_err(|e| format!("quality env: {e}"))?;
    let mut script = Script { actions, next: 0 };
    let record = run_episode(&mut sim, &mut script).map_err(|e| format!("quality episode: {e}"))?;
    let m = record.metrics;
    Ok((m.total_electric_kwh, m.occupied_steps, m.violation_steps))
}

/// `obs` as a flat JSON object carrying all seven fields at full
/// precision (Rust's shortest round-trip form).
pub fn observation_json(obs: &Observation) -> String {
    let mut out = String::with_capacity(200);
    out.push('{');
    for (i, (name, value)) in FIELDS.iter().zip(obs.to_vector()).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{value:?}");
    }
    out.push('}');
    out
}

/// A `POST /tick` body: one observation per tenant, tenants in order.
pub fn tick_body(observations: &[Observation]) -> String {
    let mut out = String::with_capacity(64 + observations.len() * 210);
    out.push_str("{\"requests\":[");
    for (i, obs) in observations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"tenant\":\"{}\",\"observation\":{}}}",
            tenant_id(i),
            observation_json(obs)
        );
    }
    out.push_str("]}");
    out
}

/// Records what a guarded policy saw over an episode.
struct Recorder {
    guard: GuardedPolicy<DtPolicy>,
    observations: Vec<Observation>,
}

impl Policy for Recorder {
    fn decide(&mut self, obs: &Observation) -> SetpointAction {
        self.observations.push(*obs);
        self.guard.decide(obs)
    }

    fn name(&self) -> &str {
        "recorder"
    }
}

/// Replays a fixed action sequence.
struct Script<'a> {
    actions: &'a [SetpointAction],
    next: usize,
}

impl Policy for Script<'_> {
    fn decide(&mut self, _obs: &Observation) -> SetpointAction {
        let action = self.actions[self.next % self.actions.len()];
        self.next += 1;
        action
    }

    fn name(&self) -> &str {
        "script"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veri_hvac::serve::observation_from_json;

    fn policies() -> Vec<DtPolicy> {
        (0..FIXTURES.len())
            .map(|i| {
                DtPolicy::from_compact_string(&read_fixture(i).expect("pinned fixture")).unwrap()
            })
            .collect()
    }

    #[test]
    fn fixtures_match_their_pins_and_tampering_is_refused() {
        for (i, (_, pin)) in FIXTURES.iter().enumerate() {
            let text = read_fixture(i).expect("fixture hashes to its pin");
            let mut tampered = text.clone();
            tampered.push('\n');
            assert!(check_pin(&tampered, pin).is_err());
        }
    }

    #[test]
    fn bodies_round_trip_through_observation_from_json() {
        let policies = policies();
        for i in 0..4 {
            let day = tenant_day(11, i, &policies[tenant_fixture(i)]).expect("generated day");
            assert_eq!(day.observations.len(), STEPS_PER_DAY);
            for obs in &day.observations {
                let parsed = observation_from_json(&observation_json(obs)).expect("body parses");
                let (a, b) = (parsed.to_vector(), obs.to_vector());
                assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
            }
        }
    }

    #[test]
    fn generator_is_a_function_of_the_seed() {
        let policies = policies();
        let a = tenant_day(5, 3, &policies[1]).unwrap();
        let b = tenant_day(5, 3, &policies[1]).unwrap();
        let c = tenant_day(6, 3, &policies[1]).unwrap();
        assert_eq!(a.observations, b.observations);
        assert_ne!(a.observations, c.observations);
    }

    #[test]
    fn replaying_the_policy_actions_reproduces_the_day() {
        let policies = policies();
        let day = tenant_day(2, 0, &policies[0]).unwrap();
        let mut g = guard(policies[0].clone());
        let actions: Vec<SetpointAction> = day.observations.iter().map(|o| g.decide(o)).collect();
        let (energy, occupied, violating) = day_quality(&day.env, &actions).unwrap();
        assert!(energy > 0.0);
        assert!(occupied > 0 && violating <= occupied);
        // Open-loop replay of the same setpoints revisits the same states.
        let mut sim = HvacEnv::new(day.env.clone()).unwrap();
        let mut obs = sim.reset();
        for (expected, action) in day.observations.iter().zip(&actions) {
            assert_eq!(&obs, expected);
            obs = sim.step(*action).unwrap().observation;
        }
    }

    #[test]
    fn tick_bodies_carry_every_tenant() {
        let policies = policies();
        let days: Vec<TenantDay> = (0..3)
            .map(|i| tenant_day(1, i, &policies[tenant_fixture(i)]).unwrap())
            .collect();
        let first: Vec<Observation> = days.iter().map(|d| d.observations[0]).collect();
        let body = tick_body(&first);
        let v = hvac_telemetry::json::parse(&body).expect("tick body is JSON");
        let requests = v.get("requests").and_then(|r| r.as_array()).unwrap();
        assert_eq!(requests.len(), 3);
        assert_eq!(
            requests[2].get("tenant").and_then(|t| t.as_str()),
            Some("b002")
        );
    }
}
