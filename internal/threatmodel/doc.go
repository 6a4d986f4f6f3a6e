// Package threatmodel implements the IDENTIFY core security function of
// Table I: asset management, STRIDE threat enumeration, DREAD-style risk
// scoring and a risk matrix. This is the "threat and security
// modelling" step the paper describes as well established in the
// embedded domain (Section III-1).
//
// Determinism contract: enumeration and scoring are pure functions of
// the asset model; compiled controls list in stable order.
package threatmodel
