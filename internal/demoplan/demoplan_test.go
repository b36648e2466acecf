package demoplan

import (
	"math"
	"testing"

	"repro/internal/datasets"
	"repro/internal/models"
)

// Calibration generates only the images it uses; they must be exactly
// the first 32 training images each recipe used to generate in full.
func TestCalibrationIsTrainingPrefix(t *testing.T) {
	mlp := models.NewMLP(MLPHidden, 1)
	cg := models.CNNGeom{InC: 3, InH: 8, InW: 8, Classes: 4}
	cnnTrain, _ := datasets.ImageClassesHard(120, cg.Classes, cg.InC, cg.InH, cg.InW, 0.4, 0.4, 96).Split(88)
	for _, tc := range []struct {
		name string
		m    *models.ImageModel
		want [][]float32
	}{
		{"mlp", mlp, datasets.DigitsNoisy(400, 0.2, 91).Images[:32]},
		{"cnn", models.NewResNetStyle(cg, 1), cnnTrain.Images[:32]},
	} {
		got := Calibration(tc.m)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: %d calibration images, want %d", tc.name, len(got), len(tc.want))
		}
		for i := range tc.want {
			if len(got[i]) != len(tc.want[i]) {
				t.Fatalf("%s image %d: %d values, want %d", tc.name, i, len(got[i]), len(tc.want[i]))
			}
			for j, v := range tc.want[i] {
				if math.Float32bits(got[i][j]) != math.Float32bits(v) {
					t.Fatalf("%s image %d value %d: %v, want %v", tc.name, i, j, got[i][j], v)
				}
			}
		}
	}
}
